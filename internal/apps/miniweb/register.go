package miniweb

import "lfi/internal/system"

// The descriptor makes miniweb visible to every registry-driven entry
// point; see internal/system.
func init() {
	system.Register(&system.Descriptor{
		Name:     Module,
		Workload: "static + PHP request-serving suite with access logging (RunSuite)",
		Binary:   Binary,
		Target:   Target,
		Blocks:   Blocks,
		Profiles: system.DefaultProfiles,
		StockBugs: []system.StockBug{
			{Match: "fwrite(NULL FILE*)", Note: "unchecked access-log fopen crashes the following fwrite (Apache class)"},
			{Match: "double unlock", Note: "double mutex unlock in the static handler's read-error recovery (Apache class)"},
		},
	})
}
