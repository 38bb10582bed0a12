package explore

import (
	"lfi/internal/system"
)

// This file adapts registered system descriptors (internal/system) to
// the engine. The explorer no longer knows any target by name: each
// application package registers a descriptor carrying its program
// image, its site-label → offset map (labels double as coverage block
// IDs under the "rec." prefix), its declared block universe and its
// controller target; everything here is generic over that contract.

// ConfigForSystem builds an exploration config from a registered system
// descriptor. The caller still sets store path, workers, seed and
// logging.
func ConfigForSystem(d *system.Descriptor) Config {
	bin, offs := d.Binary()
	cfg := Config{
		System:       d.Name,
		Binary:       bin,
		Target:       d.Target(),
		Profiles:     d.Profiles(),
		BlockOffsets: make(map[string]uint64, len(offs)),
	}
	// The site map as recovery-block ID → check-site offset. Workload
	// blocks ("main.*") have no code location and are deliberately
	// absent — they are hit on every run, so mapping them would make
	// every entry intersect every edit.
	for label, off := range offs {
		cfg.BlockOffsets["rec."+label] = off
	}
	return cfg
}
