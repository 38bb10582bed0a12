package explore

import (
	"lfi/internal/system"
)

// This file adapts registered system descriptors (internal/system) to
// the engine. The explorer no longer knows any target by name: each
// application package registers a descriptor carrying its program
// image, its site-label → offset map (labels double as coverage block
// IDs under the "rec." prefix), and a coverage-merging controller
// target; everything here is generic over that contract.

// blockForSite inverts a site-label → offset map into the recovery
// block naming convention shared by the built-in applications.
func blockForSite(offs map[string]uint64) func(string, uint64) string {
	byOff := make(map[uint64]string, len(offs))
	for label, off := range offs {
		byOff[off] = "rec." + label
	}
	return func(_ string, off uint64) string { return byOff[off] }
}

// ConfigForSystem builds an exploration config from a registered system
// descriptor. The caller still sets store path, workers, seed and
// logging.
func ConfigForSystem(d *system.Descriptor) Config {
	bin, offs := d.Binary()
	cfg := Config{
		System:       d.Name,
		Binary:       bin,
		Target:       d.TargetWithCoverage,
		Profiles:     d.Profiles(),
		BlockForSite: d.BlockForSite,
		BlockOffsets: make(map[string]uint64, len(offs)),
	}
	if cfg.BlockForSite == nil {
		cfg.BlockForSite = blockForSite(offs)
	}
	// The site map, inverted for impact analysis: recovery-block ID →
	// check-site offset. Workload blocks ("main.*") have no code
	// location and are deliberately absent — they are hit on every run,
	// so mapping them would make every entry intersect every edit.
	for label, off := range offs {
		cfg.BlockOffsets["rec."+label] = off
	}
	return cfg
}
