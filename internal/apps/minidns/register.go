package minidns

import "lfi/internal/system"

// The descriptor makes minidns visible to every registry-driven entry
// point; see internal/system.
func init() {
	system.Register(&system.Descriptor{
		Name:     Module,
		Workload: "zone-load/query/statistics-channel regression suite (RunSuite)",
		Binary:   Binary,
		Target:   Target,
		Blocks:   Blocks,
		Profiles: system.DefaultProfiles,
		StockBugs: []system.StockBug{
			{Match: "dst != NULL && dst_initialized", Note: "recovery path destroys the dst subsystem before its init flag is set (BIND assertion)"},
			{Match: "xmlTextWriterWriteElement(NULL writer)", Note: "failed xmlNewTextWriterDoc not checked before use (BIND statistics channel)"},
		},
	})
}
