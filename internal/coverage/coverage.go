// Package coverage measures recovery-code coverage, standing in for the
// paper's gcov/lcov workflow (§7.1, Table 3).
//
// Each system declares its block universe once, as an immutable Index:
// every basic block's ID, how many source lines it stands for, and
// whether it is recovery code (an error-handling arm). A run records the
// blocks it executes in a Recorder held by its process image — one
// bitset over that Index, like the gcov counters living in the process
// under test. The controller copies the bitset onto the run's outcome
// when coverage is requested, campaigns union run bitsets (lcov merging
// .info files), and the Index answers the two Table 3 questions over any
// union: what fraction of recovery blocks/lines it covers, and what the
// total line coverage is. Sorted IDs appear only at serialization
// boundaries (the store's block tables, the wire's universe
// fingerprint).
package coverage

import (
	"fmt"
	"sort"
)

// Block declares one basic block of a system's universe.
type Block struct {
	ID       string
	LOC      int
	Recovery bool
}

// Index is an immutable block universe: the declared blocks sorted by
// ID, with their LOC weights and recovery flags. Bit i of a Bitset over
// an Index stands for the block at position i. Everyone who shares an
// Index (process image, executor, explorer) agrees on what each bit
// means; a store's block table from an earlier build is mapped onto
// the current Index with Remap.
type Index struct {
	ids []string
	loc []int
	rec Bitset
	pos map[string]int

	recBlocks, recLOC, totLOC int
}

// NewIndex builds a universe from the declared blocks. A block declared
// twice panics: like a duplicate system registration it is a wiring bug
// that should fail at program start.
func NewIndex(blocks []Block) *Index {
	sorted := append([]Block(nil), blocks...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
	x := &Index{
		ids: make([]string, len(sorted)),
		loc: make([]int, len(sorted)),
		rec: NewBitset(len(sorted)),
		pos: make(map[string]int, len(sorted)),
	}
	for i, b := range sorted {
		if _, dup := x.pos[b.ID]; dup {
			panic(fmt.Sprintf("coverage: block %q declared twice", b.ID))
		}
		x.ids[i], x.loc[i], x.pos[b.ID] = b.ID, b.LOC, i
		x.totLOC += b.LOC
		if b.Recovery {
			x.rec.Set(i)
			x.recBlocks++
			x.recLOC += b.LOC
		}
	}
	return x
}

// Len returns the universe size.
func (x *Index) Len() int { return len(x.ids) }

// IDs returns the sorted universe. Callers must not mutate it.
func (x *Index) IDs() []string { return x.ids }

// Pos returns the position of id in the universe.
func (x *Index) Pos(id string) (int, bool) {
	p, ok := x.pos[id]
	return p, ok
}

// ID returns the block ID at position i.
func (x *Index) ID(i int) string { return x.ids[i] }

// Recoveries returns the recovery blocks as a bitset. Callers must not
// mutate it.
func (x *Index) Recoveries() Bitset { return x.rec }

// AppendIDs materializes the bitset's blocks as sorted IDs appended to
// dst — the JSON-boundary form of a footprint (sorted because the
// universe is).
func (x *Index) AppendIDs(dst []string, b Bitset) []string {
	b.Range(func(i int) {
		if i < len(x.ids) {
			dst = append(dst, x.ids[i])
		}
	})
	return dst
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

// Recovery returns the coverage of recovery blocks by covered.
func (x *Index) Recovery(covered Bitset) Stats {
	s := Stats{Blocks: x.recBlocks, LOC: x.recLOC}
	covered.Range(func(i int) {
		if x.rec.Has(i) {
			s.BlocksCovered++
			s.LOCCovered += x.loc[i]
		}
	})
	return s
}

// Total returns the coverage of the whole universe by covered.
func (x *Index) Total(covered Bitset) Stats {
	s := Stats{Blocks: len(x.ids), LOC: x.totLOC}
	covered.Range(func(i int) {
		if i < len(x.ids) {
			s.BlocksCovered++
			s.LOCCovered += x.loc[i]
		}
	})
	return s
}

// Recorder records the blocks one run executes, as a bitset over its
// universe. A process image holds at most one; a nil Recorder records
// nothing, which is how a process that is not measured (a live cluster
// replica) keeps its hot path free of coverage work. A Recorder is not
// safe for concurrent use: a process image runs one workload at a time.
type Recorder struct {
	idx  *Index
	bits Bitset
}

// NewRecorder returns an empty recorder over the universe x.
func NewRecorder(x *Index) *Recorder {
	return &Recorder{idx: x, bits: NewBitset(x.Len())}
}

// Hit records that block id executed. An ID the universe does not
// declare panics: a block the system forgot to declare is a wiring bug,
// not data to drop or invent.
func (r *Recorder) Hit(id string) {
	if r == nil {
		return
	}
	p, ok := r.idx.pos[id]
	if !ok {
		panic(fmt.Sprintf("coverage: hit on undeclared block %q", id))
	}
	r.bits.Set(p)
}

// Reset clears the recorded hits.
func (r *Recorder) Reset() {
	if r != nil {
		r.bits.Reset()
	}
}

// Index returns the recorder's universe.
func (r *Recorder) Index() *Index { return r.idx }

// Bits returns the recorded hits. The bitset is the recorder's own and
// changes with the next Hit or Reset; callers that keep it must Clone.
func (r *Recorder) Bits() Bitset { return r.bits }
