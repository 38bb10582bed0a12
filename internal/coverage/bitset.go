package coverage

import (
	"math/bits"
	"sort"
)

// Bitset is a dense bitset over a block universe established by an
// Index: bit i stands for the block at universe position i. It is the
// hot-path encoding of per-run coverage footprints — the sorted
// []string ID form survives only at JSON serialization boundaries
// (stores, wire fallback), materialized on demand via Index.AppendIDs.
type Bitset []uint64

// NewBitset returns a zeroed bitset able to hold n bits.
func NewBitset(n int) Bitset {
	return make(Bitset, (n+63)/64)
}

// Set sets bit i. The bitset must have been sized to hold it.
func (b Bitset) Set(i int) { b[i/64] |= 1 << (uint(i) % 64) }

// Has reports whether bit i is set; out-of-range bits read as unset.
func (b Bitset) Has(i int) bool {
	w := i / 64
	return w >= 0 && w < len(b) && b[w]&(1<<(uint(i)%64)) != 0
}

// Or folds other into b (b must be at least as long).
func (b Bitset) Or(other Bitset) {
	for i, w := range other {
		b[i] |= w
	}
}

// And intersects b with other in place; bits beyond other clear.
func (b Bitset) And(other Bitset) {
	for i := range b {
		if i < len(other) {
			b[i] &= other[i]
		} else {
			b[i] = 0
		}
	}
}

// Count returns the number of set bits.
func (b Bitset) Count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether no bit is set.
func (b Bitset) Empty() bool {
	for _, w := range b {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy.
func (b Bitset) Clone() Bitset {
	out := make(Bitset, len(b))
	copy(out, b)
	return out
}

// Reset clears every bit, keeping capacity.
func (b Bitset) Reset() {
	for i := range b {
		b[i] = 0
	}
}

// FoldNew ors src∩mask into b and calls fn with each position that was
// newly set, in ascending order — the one-pass "which recovery blocks
// did this run cover first" fold of the explorer.
func (b Bitset) FoldNew(src, mask Bitset, fn func(i int)) {
	for w := 0; w < len(src) && w < len(b); w++ {
		m := src[w]
		if w < len(mask) {
			m &= mask[w]
		} else {
			m = 0
		}
		nw := m &^ b[w]
		b[w] |= nw
		for nw != 0 {
			t := bits.TrailingZeros64(nw)
			fn(w*64 + t)
			nw &^= 1 << uint(t)
		}
	}
}

// Range calls fn with each set bit's position, in ascending order.
func (b Bitset) Range(fn func(i int)) {
	for w, word := range b {
		for word != 0 {
			t := bits.TrailingZeros64(word)
			fn(w*64 + t)
			word &^= 1 << uint(t)
		}
	}
}

// Index is an immutable ID↔position table over a block universe: the
// sorted registered-block IDs of one application image. Everyone who
// shares an Index (worker and session, executor and explorer) agrees on
// what each bit of a Bitset means. Wire backends establish a shared
// Index at handshake; in-process users take it from the Tracker that
// registered the universe.
type Index struct {
	ids []string
	pos map[string]int
}

// NewIndex builds an index over the given IDs (copied, sorted,
// deduplicated).
func NewIndex(ids []string) *Index {
	sorted := append([]string(nil), ids...)
	sort.Strings(sorted)
	x := &Index{ids: sorted[:0], pos: make(map[string]int, len(sorted))}
	for _, id := range sorted {
		if _, dup := x.pos[id]; dup {
			continue
		}
		x.pos[id] = len(x.ids)
		x.ids = append(x.ids, id)
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

// AppendIDs materializes the bitset's blocks as sorted IDs appended to
// dst — the JSON-boundary form of a footprint (sorted because the
// universe is).
func (x *Index) AppendIDs(dst []string, b Bitset) []string {
	for w, word := range b {
		for word != 0 {
			t := bits.TrailingZeros64(word)
			if i := w*64 + t; i < len(x.ids) {
				dst = append(dst, x.ids[i])
			}
			word &^= 1 << uint(t)
		}
	}
	return dst
}

// Index builds the ID↔position table over this tracker's registered
// universe.
func (t *Tracker) Index() *Index {
	return NewIndex(t.RegisteredIDs())
}

// CoveredBits encodes the covered blocks as a bitset over x, reusing
// dst when it is large enough.
func (t *Tracker) CoveredBits(x *Index, dst Bitset) Bitset {
	if need := (x.Len() + 63) / 64; cap(dst) < need {
		dst = make(Bitset, need)
	} else {
		dst = dst[:need]
		dst.Reset()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for id, b := range t.blocks {
		if b.Hits == 0 {
			continue
		}
		if p, ok := x.pos[id]; ok {
			dst.Set(p)
		}
	}
	return dst
}

// RecoveryBits encodes recovery-block membership as a bitset over x.
func (t *Tracker) RecoveryBits(x *Index) Bitset {
	b := NewBitset(x.Len())
	t.mu.Lock()
	defer t.mu.Unlock()
	for id, blk := range t.blocks {
		if !blk.Recovery {
			continue
		}
		if p, ok := x.pos[id]; ok {
			b.Set(p)
		}
	}
	return b
}

// HitBits records one execution of every block set in b (the bitset
// fold of per-run footprints into a campaign accumulator).
func (t *Tracker) HitBits(x *Index, b Bitset) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for w, word := range b {
		for word != 0 {
			tz := bits.TrailingZeros64(word)
			word &^= 1 << uint(tz)
			i := w*64 + tz
			if i >= len(x.ids) {
				continue
			}
			id := x.ids[i]
			blk, ok := t.blocks[id]
			if !ok {
				blk = &Block{ID: id, LOC: 1}
				t.blocks[id] = blk
			}
			blk.Hits++
		}
	}
}
