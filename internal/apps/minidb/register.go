package minidb

import "lfi/internal/system"

// The descriptor makes minidb visible to every registry-driven entry
// point (cmd/lfi, the analyzer, the explorer, the Session API) without
// those packages naming it; the conformance test at the repository root
// enforces the contract, including rediscovery of the stock bugs below.
func init() {
	system.Register(&system.Descriptor{
		Name:     Module,
		Workload: "MyISAM-style create/insert/select/merge regression suite (RunSuite)",
		Binary:   Binary,
		Target:   Target,
		Blocks:   Blocks,
		Profiles: system.DefaultProfiles,
		StockBugs: []system.StockBug{
			{Match: "double unlock", Note: "double mutex unlock in mi_create's recovery path (MySQL bug [19])"},
			{Match: "uninitialized errmsg", Note: "crash on uninitialized error-message structure after a failed read (MySQL bug [20])"},
		},
	})
}
