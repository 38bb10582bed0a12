package coverage

import (
	"math/bits"
	"slices"
)

// Bitset is a dense bitset over a block universe established by an
// Index: bit i stands for the block at universe position i. It is the
// encoding of coverage from a run's Hit to the store, which keeps it
// with the ID table it is over; the sorted []string ID form is
// materialized on demand via Index.AppendIDs.
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

// FoldNew ors src into b and calls fn with each newly set position that
// mask also has, in ascending order — the explorer's one-pass "which
// recovery blocks did this run cover first" fold.
func (b Bitset) FoldNew(src, mask Bitset, fn func(i int)) {
	for w := 0; w < len(src) && w < len(b); w++ {
		nw := src[w] &^ b[w]
		b[w] |= nw
		if w < len(mask) {
			nw &= mask[w]
		} else {
			nw = 0
		}
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

// Remap translates bitsets over a foreign ID table — a store's block
// table written by another commit — onto a local Index:
// blocks both sides declare keep their bit, blocks the local build lacks
// are dropped.
type Remap struct {
	to  *Index
	pos []int // foreign position -> local position, -1 = dropped
}

// Remap returns the mapping from the strictly ascending ID table ids
// onto x, or nil when ids is x's own table and bitsets carry over
// unchanged.
func (x *Index) Remap(ids []string) *Remap {
	if slices.Equal(ids, x.ids) {
		return nil
	}
	m := &Remap{to: x, pos: make([]int, len(ids))}
	for i, id := range ids {
		if p, ok := x.pos[id]; ok {
			m.pos[i] = p
		} else {
			m.pos[i] = -1
		}
	}
	return m
}

// Apply returns src's bits as a new bitset over the local universe.
func (m *Remap) Apply(src Bitset) Bitset {
	out := NewBitset(m.to.Len())
	m.OrInto(out, src)
	return out
}

// OrInto sets src's bits in dst, a bitset over the local universe.
func (m *Remap) OrInto(dst, src Bitset) {
	src.Range(func(i int) {
		if i < len(m.pos) && m.pos[i] >= 0 {
			dst.Set(m.pos[i])
		}
	})
}
