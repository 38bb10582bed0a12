// Package system is the registry of target systems the LFI toolchain
// can test — the extensibility seam of the paper's §3 pitch, applied to
// targets instead of triggers.
//
// Every built-in application (internal/apps/*, internal/pbft) describes
// itself with a Descriptor — how to build its binary and symbol-offset
// map, its coverage block universe, how to adapt it to the test
// controller, which library fault profiles it links against, what its
// default workload suite is, and which stock Table-1 crash bugs the
// toolchain is expected to rediscover — and registers it from an init
// function, database/sql-driver style. Engines and entry points
// (cmd/lfi, the analyzer, the explorer, the public Session API) consume
// descriptors through Lookup/All and never enumerate systems by hand,
// so adding a target means writing one package that calls Register; no
// engine or command changes. The descriptor contract is enforced by the
// registry conformance test at the repository root.
//
// Like database/sql drivers, a descriptor is only visible after its
// package has been imported; lfi/internal/system/all blank-imports
// every built-in system and is itself imported by the public lfi
// package, so facade users always see the full set.
package system

import (
	"fmt"
	"sort"
	"sync"

	"lfi/internal/controller"
	"lfi/internal/coverage"
	"lfi/internal/isa"
	"lfi/internal/profile"
)

// StockBug is one known bug a system's descriptor advertises — a crash
// the paper's Table 1 campaigns find and the coverage-guided explorer
// must rediscover with no hand-written scenario (the conformance
// contract).
type StockBug struct {
	// Match is a stable substring of the failure signature
	// (controller.FailureSignature) that identifies the bug.
	Match string
	// Note says what the bug is, for reports and test output.
	Note string
	// WindowOnly marks bugs that need sustained fault pressure: no
	// single generated candidate can trigger them, only the explorer's
	// bred window mutants — global occurrence windows or site-local
	// call-stack windows (e.g. PBFT's view-change crash).
	WindowOnly bool
	// StackWindowOnly marks bugs that additionally hide past the global
	// occurrence counter's range: only a *call-stack* window — a burst
	// counted locally at one call site — can place the faults (e.g.
	// RAFT's log-truncation crash, which sits in the replication loop
	// after the election churn has consumed the global count). Implies
	// the WindowOnly contract.
	StackWindowOnly bool
}

// Descriptor describes one testable target system. Name, Binary,
// Target, Blocks and Profiles are required. Recovery blocks are named by
// the shared "rec." + site-label convention over the Binary offset map.
type Descriptor struct {
	// Name is the registry key, the store directory name, and the
	// system label on bug reports (e.g. "minidb").
	Name string
	// Workload describes the default test-suite workload the Target
	// runs, for docs and usage text.
	Workload string
	// Binary assembles the program image and returns it with the
	// site-label → code-offset map the application's instrumentation
	// uses (labels double as coverage block IDs).
	Binary func() (*isa.Binary, map[string]uint64)
	// Target adapts the system to the test controller: each Start
	// stages a fresh process image bound to the default workload suite
	// and must be safe for concurrent campaign workers.
	Target func() controller.Target
	// Blocks is the system's coverage universe, declared once: every
	// block its process images record hits over. A target run with
	// Coverage set returns its hits as a bitset over Blocks.
	Blocks *coverage.Index
	// Profiles returns the fault profiles of the libraries the system
	// links against (usually DefaultProfiles).
	Profiles func() []*profile.Profile
	// StockBugs are the system's known Table-1 crash bugs.
	StockBugs []StockBug
}

// validate reports the first missing required field.
func (d *Descriptor) validate() error {
	switch {
	case d == nil:
		return fmt.Errorf("system: Register called with nil descriptor")
	case d.Name == "":
		return fmt.Errorf("system: descriptor has no Name")
	case d.Binary == nil:
		return fmt.Errorf("system %q: descriptor has no Binary", d.Name)
	case d.Target == nil:
		return fmt.Errorf("system %q: descriptor has no Target", d.Name)
	case d.Blocks == nil:
		return fmt.Errorf("system %q: descriptor has no Blocks", d.Name)
	case d.Profiles == nil:
		return fmt.Errorf("system %q: descriptor has no Profiles", d.Name)
	}
	return nil
}

var (
	regMu    sync.RWMutex
	registry = make(map[string]*Descriptor)
)

// Register makes a system available by name. Like database/sql.Register
// it is meant to be called from the system package's init function and
// panics on an invalid or duplicate registration — both are wiring bugs
// that should fail at program start, not at lookup time.
func Register(d *Descriptor) {
	if err := d.validate(); err != nil {
		panic(err.Error())
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[d.Name]; dup {
		panic("system: Register called twice for " + d.Name)
	}
	registry[d.Name] = d
}

// Lookup returns the descriptor registered under name.
func Lookup(name string) (*Descriptor, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	d, ok := registry[name]
	return d, ok
}

// All returns every registered descriptor, sorted by name.
func All() []*Descriptor {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]*Descriptor, 0, len(registry))
	for _, d := range registry {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Names returns the registered system names, sorted.
func Names() []string {
	all := All()
	out := make([]string, len(all))
	for i, d := range all {
		out[i] = d.Name
	}
	return out
}
