// Package coverage measures recovery-code coverage, standing in for the
// paper's gcov/lcov workflow (§7.1, Table 3).
//
// Applications register their basic blocks up front, marking which ones
// are recovery code (error-handling arms) and how many source lines each
// block represents, then report execution with Hit. The tracker answers
// the two Table 3 questions: what fraction of recovery blocks/lines did
// a campaign execute, and what was total line coverage.
package coverage

import (
	"fmt"
	"sort"
	"sync"
)

// Block is one registered basic block.
type Block struct {
	ID       string
	LOC      int
	Recovery bool
	Hits     uint64
}

// Tracker accumulates coverage for one application image.
type Tracker struct {
	mu      sync.Mutex
	blocks  map[string]*Block
	scratch []string // reused by CoveredIDs
}

// New creates an empty tracker.
func New() *Tracker {
	return &Tracker{blocks: make(map[string]*Block)}
}

// Register adds a block. Registering an existing ID updates its
// metadata but preserves hits.
func (t *Tracker) Register(id string, loc int, recovery bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if b, ok := t.blocks[id]; ok {
		b.LOC, b.Recovery = loc, recovery
		return
	}
	t.blocks[id] = &Block{ID: id, LOC: loc, Recovery: recovery}
}

// Hit records one execution of a block. Unregistered IDs are registered
// implicitly as 1-line non-recovery blocks so that coverage never
// silently drops data.
func (t *Tracker) Hit(id string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, ok := t.blocks[id]
	if !ok {
		b = &Block{ID: id, LOC: 1}
		t.blocks[id] = b
	}
	b.Hits++
}

// ResetHits zeroes execution counts, keeping registrations.
func (t *Tracker) ResetHits() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, b := range t.blocks {
		b.Hits = 0
	}
}

// Stats is a coverage summary.
type Stats struct {
	Blocks        int
	BlocksCovered int
	LOC           int
	LOCCovered    int
}

// Percent returns line coverage in percent.
func (s Stats) Percent() float64 {
	if s.LOC == 0 {
		return 0
	}
	return 100 * float64(s.LOCCovered) / float64(s.LOC)
}

// String renders the summary.
func (s Stats) String() string {
	return fmt.Sprintf("%d/%d blocks, %d/%d LOC (%.1f%%)",
		s.BlocksCovered, s.Blocks, s.LOCCovered, s.LOC, s.Percent())
}

// Recovery returns coverage over recovery blocks only.
func (t *Tracker) Recovery() Stats { return t.stats(true) }

// Total returns coverage over all registered blocks.
func (t *Tracker) Total() Stats { return t.stats(false) }

func (t *Tracker) stats(recoveryOnly bool) Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	var s Stats
	for _, b := range t.blocks {
		if recoveryOnly && !b.Recovery {
			continue
		}
		s.Blocks++
		s.LOC += b.LOC
		if b.Hits > 0 {
			s.BlocksCovered++
			s.LOCCovered += b.LOC
		}
	}
	return s
}

// CoveredIDs returns the IDs of blocks executed at least once, sorted.
// The returned slice is tracker-owned scratch, invalidated by the next
// CoveredIDs call — callers that retain it (store and wire
// serialization boundaries) must copy.
func (t *Tracker) CoveredIDs() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.scratch[:0]
	for id, b := range t.blocks {
		if b.Hits > 0 {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	t.scratch = out
	return out
}

// RegisteredIDs returns the IDs of all registered blocks, sorted.
func (t *Tracker) RegisteredIDs() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, 0, len(t.blocks))
	for id := range t.blocks {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// RecoveryIDs returns the IDs of all registered recovery blocks,
// sorted — the block universe the fault-space explorer validates
// replayed store entries against.
func (t *Tracker) RecoveryIDs() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []string
	for id, b := range t.blocks {
		if b.Recovery {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// Merge folds another tracker's hits into this one (campaigns union
// coverage across many runs, like lcov merging .info files). Both locks
// are held for the duration, destination first; merges only ever flow
// per-run tracker → campaign accumulator, so the order cannot invert.
// This keeps the steady-state merge allocation-free (no snapshot slice)
// once the accumulator knows the universe.
func (t *Tracker) Merge(other *Tracker) {
	if other == t {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	other.mu.Lock()
	defer other.mu.Unlock()
	for id, ob := range other.blocks {
		b, ok := t.blocks[id]
		if !ok {
			nb := *ob
			t.blocks[id] = &nb
			continue
		}
		b.Hits += ob.Hits
	}
}
