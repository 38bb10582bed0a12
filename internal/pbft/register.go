package pbft

import "lfi/internal/system"

// SystemName is the registry name of the scripted PBFT replica harness
// (the binary itself is named bft/simple-server).
const SystemName = "pbft"

// The descriptor makes the PBFT replica harness visible to every
// registry-driven entry point; see internal/system. The view-change
// crash is WindowOnly: losing only the REQUEST or only the PRE-PREPARE
// is repaired by the protocol, so it is reachable solely through the
// explorer's occurrence-window mutants — the conformance test enforces
// that no non-window scenario finds it.
func init() {
	system.Register(&system.Descriptor{
		Name:     SystemName,
		Workload: "scripted deterministic replica-trace harness (one committed operation, then a view change)",
		Binary:   Binary,
		Target:   Target,
		Blocks:   Blocks,
		Profiles: system.DefaultProfiles,
		StockBugs: []system.StockBug{
			{Match: "fwrite(NULL FILE*)", Note: "shutdown checkpoint's unchecked fopen crashes the following fwrite"},
			{Match: "view change", Note: "NEW-VIEW dereferences a committed entry with no content after losing both REQUEST and PRE-PREPARE", WindowOnly: true},
		},
	})
}
