package minivcs

import "lfi/internal/system"

// The descriptor makes minivcs visible to every registry-driven entry
// point; see internal/system. The stock-bug matches pin the five Git
// crash/data-loss signatures of Table 1 by their stable fragments (the
// three malloc sites are distinct bugs, so each is matched by its call
// site).
func init() {
	system.Register(&system.Descriptor{
		Name:     Module,
		Workload: "init/add/commit/log/gc repository regression suite (RunSuite)",
		Binary:   Binary,
		Target:   Target,
		Blocks:   Blocks,
		Profiles: system.DefaultProfiles,
		StockBugs: []system.StockBug{
			{Match: "malloc at minivcs+0x150", Note: "unchecked malloc in xmalloc wrapper, site 1 (Git)"},
			{Match: "malloc at minivcs+0x168", Note: "unchecked malloc in xmalloc wrapper, site 2 (Git)"},
			{Match: "malloc at minivcs+0x1d8", Note: "unchecked malloc in xprintf path (Git)"},
			{Match: "readdir(NULL DIR*)", Note: "opendir failure not checked before readdir (Git)"},
			{Match: "GIT_DIR unset", Note: "hook runs with incomplete environment after failed setenv (Git data loss)"},
		},
	})
}
