package coverage

import (
	"fmt"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestRegisterHitStats(t *testing.T) {
	x := NewIndex([]Block{
		{ID: "main.a", LOC: 10},
		{ID: "rec.a", LOC: 5, Recovery: true},
		{ID: "rec.b", LOC: 7, Recovery: true},
	})
	r := NewRecorder(x)
	r.Hit("main.a")
	r.Hit("rec.a")
	r.Hit("rec.a")

	rec := x.Recovery(r.Bits())
	if rec.Blocks != 2 || rec.BlocksCovered != 1 || rec.LOC != 12 || rec.LOCCovered != 5 {
		t.Fatalf("recovery stats %+v", rec)
	}
	tot := x.Total(r.Bits())
	if tot.Blocks != 3 || tot.BlocksCovered != 2 || tot.LOC != 22 || tot.LOCCovered != 15 {
		t.Fatalf("total stats %+v", tot)
	}
}

func TestPercent(t *testing.T) {
	x := NewIndex([]Block{{ID: "a", LOC: 50}, {ID: "b", LOC: 50}})
	r := NewRecorder(x)
	r.Hit("a")
	if p := x.Total(r.Bits()).Percent(); p != 50 {
		t.Fatalf("percent %v", p)
	}
	if (Stats{}).Percent() != 0 {
		t.Fatal("empty percent")
	}
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

func TestHitUndeclaredPanics(t *testing.T) {
	r := NewRecorder(NewIndex([]Block{{ID: "a", LOC: 1}}))
	mustPanic(t, "hit on an undeclared block", func() { r.Hit("surprise") })
}

func TestDuplicateBlockPanics(t *testing.T) {
	mustPanic(t, "a block declared twice", func() { NewIndex([]Block{{ID: "a"}, {ID: "a", LOC: 9, Recovery: true}}) })
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *Recorder
	r.Hit("anything")
	r.Reset()
}

func TestResetHits(t *testing.T) {
	x := NewIndex([]Block{{ID: "a", LOC: 1, Recovery: true}})
	r := NewRecorder(x)
	r.Hit("a")
	r.Reset()
	if x.Recovery(r.Bits()).BlocksCovered != 0 {
		t.Fatal("reset did not clear")
	}
}

func TestCoveredIDsSorted(t *testing.T) {
	x := NewIndex([]Block{{ID: "c"}, {ID: "a"}, {ID: "b"}})
	if !slices.Equal(x.IDs(), []string{"a", "b", "c"}) {
		t.Fatalf("ids %v", x.IDs())
	}
	r := NewRecorder(x)
	for _, id := range []string{"c", "a"} {
		r.Hit(id)
	}
	if ids := x.AppendIDs(nil, r.Bits()); !slices.Equal(ids, []string{"a", "c"}) {
		t.Fatalf("covered ids %v", ids)
	}
}

func TestFoldNewReportsMaskedNewBits(t *testing.T) {
	b := NewBitset(130)
	b.Set(1)
	src, mask := NewBitset(130), NewBitset(130)
	for _, i := range []int{1, 2, 3, 129} {
		src.Set(i)
	}
	mask.Set(1)
	mask.Set(3)
	mask.Set(129)
	var got []int
	b.FoldNew(src, mask, func(i int) { got = append(got, i) })
	if !slices.Equal(got, []int{3, 129}) {
		t.Fatalf("new masked bits %v", got)
	}
	for _, i := range []int{1, 2, 3, 129} {
		if !b.Has(i) {
			t.Fatalf("bit %d not folded", i)
		}
	}
}

// TestMergeUnion: campaigns union per-run bitsets, like lcov merging
// .info files.
func TestMergeUnion(t *testing.T) {
	x := NewIndex([]Block{{ID: "a", LOC: 5, Recovery: true}, {ID: "b", LOC: 5, Recovery: true}})
	run1, run2 := NewRecorder(x), NewRecorder(x)
	run1.Hit("a")
	run2.Hit("b")
	acc := NewBitset(x.Len())
	acc.Or(run1.Bits())
	acc.Or(run2.Bits())
	if rec := x.Recovery(acc); rec.BlocksCovered != 2 || rec.LOCCovered != 10 {
		t.Fatalf("merged coverage %+v", rec)
	}
}

// Property: covered counts never exceed totals, and the union of run
// bitsets is monotone in covered blocks.
func TestPropertyMergeMonotone(t *testing.T) {
	blocks := make([]Block, 8)
	for i := range blocks {
		blocks[i] = Block{ID: string(rune('a' + i)), LOC: i + 1, Recovery: i%2 == 0}
	}
	x := NewIndex(blocks)
	f := func(hits []uint8) bool {
		acc := NewBitset(x.Len())
		acc.Set(0)
		r := NewRecorder(x)
		for _, h := range hits {
			r.Hit(string(rune('a' + int(h)%8)))
		}
		before := x.Total(acc).BlocksCovered
		acc.Or(r.Bits())
		tot := x.Total(acc)
		return tot.BlocksCovered >= before && tot.BlocksCovered <= tot.Blocks && tot.LOCCovered <= tot.LOC
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRemapIdenticalTableIsNil(t *testing.T) {
	x := NewIndex([]Block{{ID: "a"}, {ID: "b"}})
	if m := x.Remap([]string{"a", "b"}); m != nil {
		t.Fatalf("identical table remapped: %+v", m)
	}
}

// universeOf draws a sorted, deduplicated ID table from the low bits of
// mask over a fixed alphabet of block names.
func universeOf(mask uint32) []string {
	var ids []string
	for i := 0; i < 32; i++ {
		if mask&(1<<i) != 0 {
			ids = append(ids, fmt.Sprintf("rec.b%02d", i))
		}
	}
	return ids
}

// FuzzCoverageRemap: for random local and foreign universes and a random
// bitset over the foreign one, the remapped bits name exactly the
// foreign covered blocks the local universe also declares.
func FuzzCoverageRemap(f *testing.F) {
	f.Add(uint32(0b1011), uint32(0b0111), uint64(0b101))
	f.Add(uint32(0xffff), uint32(0xffff), uint64(0xffff))
	f.Add(uint32(0), uint32(0xf0f0), uint64(0xffffffff))
	f.Add(uint32(0xdeadbeef), uint32(0xfeedface), uint64(0x123456789abcdef))
	f.Fuzz(func(t *testing.T, local, foreign uint32, bits uint64) {
		lids, fids := universeOf(local), universeOf(foreign)
		blocks := make([]Block, len(lids))
		for i, id := range lids {
			blocks[i] = Block{ID: id, LOC: 1}
		}
		x := NewIndex(blocks)
		src := Bitset{bits}
		var want []string
		src.Range(func(i int) {
			if i < len(fids) {
				if _, ok := x.Pos(fids[i]); ok {
					want = append(want, fids[i])
				}
			}
		})
		sort.Strings(want)
		out := src
		if m := x.Remap(fids); m != nil {
			out = m.Apply(src)
		} else if !slices.Equal(lids, fids) {
			t.Fatalf("different tables %v / %v mapped as identical", lids, fids)
		}
		if got := x.AppendIDs(nil, out); !slices.Equal(got, want) {
			t.Fatalf("local %v foreign %v bits %#x: remapped %v, want %v", lids, fids, bits, got, want)
		}
	})
}
