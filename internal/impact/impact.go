// Package impact computes which recovery blocks a code edit can reach —
// the analysis behind change-impact-aware store invalidation.
//
// The persistent exploration store keys every cached outcome on the
// content hash of the code region its scenario targets, so an edit to
// one function already invalidates exactly that function's shard. But
// the occurrence/window dimension keys on the *whole image*: today any
// edit anywhere invalidates every global-count entry, even when the
// edit provably cannot change what those runs observed. This package
// closes that gap, following the regression-verification idea of
// reusing prior results whenever a change cannot affect them (Beyer et
// al., arXiv:1305.6915):
//
//  1. FuncHashes fingerprints every function body; Funcs diffs two
//     fingerprint maps into changed/added/removed sets.
//  2. Compute walks the internal/cfg control-flow graphs of the changed
//     functions (and, through direct CALLN edges, their callees and the
//     post-call windows of their callers), collecting every recovery
//     block whose check site lies on a reachable instruction. Library
//     call sites inside the walk are re-analyzed with internal/dataflow
//     so an inspection tool can show which return-code checks guard the
//     impacted region.
//  3. The resulting Set is intersected with each stored entry's
//     recorded coverage: disjoint entries migrate forward with their
//     outcomes intact; only intersecting entries re-validate.
//
// Soundness caveat: the CFG walk follows fall-through, direct jumps and
// both arms of conditional branches, but indirect branches are recorded,
// not followed (the paper's own prototype makes the same trade — §5,
// 0.13% of branches in its corpus were indirect). A walk that meets an
// indirect branch, exhausts its instruction budget, or loses a removed
// function therefore cannot bound what the edit reaches, and the Set
// degrades to Fallback: every entry re-validates, which is exactly the
// whole-shard behavior the store had before this package existed. The
// approximation is also coverage-relative: an entry is only as
// migratable as its recorded footprint is complete, which holds for the
// built-in targets because every instrumented recovery block reports
// itself on every run.
package impact

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"

	"lfi/internal/cfg"
	"lfi/internal/dataflow"
	"lfi/internal/isa"
	"lfi/internal/profile"
)

// ImageHash fingerprints a whole code image (12 hex digits — the same
// width the store has always used for code-region hashes).
func ImageHash(code []byte) string {
	sum := sha256.Sum256(code)
	return hex.EncodeToString(sum[:6])
}

// ImageVersion identifies a target image: binary name + "@" + its
// ImageHash. Store entries belong to it, and a fleet worker advertises
// it per system, so the explorer and the worker must agree on it byte
// for byte.
func ImageVersion(b *isa.Binary) string {
	return b.Name + "@" + ImageHash(b.Code)
}

// Hasher fingerprints the code regions of one binary: the enclosing
// function for call-stack candidates, the whole image for global-count
// candidates. The image is hashed once and function regions are
// memoized — candidate generation asks for every candidate.
type Hasher struct {
	bin      *isa.Binary
	image    string
	byCaller map[string]string
}

// NewHasher builds a hasher over b.
func NewHasher(b *isa.Binary) *Hasher {
	return &Hasher{
		bin:      b,
		image:    ImageHash(b.Code),
		byCaller: make(map[string]string),
	}
}

// Image returns the whole-image region hash.
func (h *Hasher) Image() string { return h.image }

// Region returns the region hash a candidate with the given enclosing
// function keys on: the function body's hash, or the image hash when
// the caller is unknown ("") or has no symbol.
func (h *Hasher) Region(caller string) string {
	if caller == "" {
		return h.image
	}
	if cached, ok := h.byCaller[caller]; ok {
		return cached
	}
	region := h.image
	if sym, ok := h.bin.FindSymbol(caller); ok {
		if end := sym.Off + sym.Size; end <= uint64(len(h.bin.Code)) {
			sum := sha256.Sum256(h.bin.Code[sym.Off:end])
			region = hex.EncodeToString(sum[:6])
		}
	}
	h.byCaller[caller] = region
	return region
}

// FuncHashes fingerprints every function symbol of b — the per-image
// metadata the store persists so a later session can diff binaries
// without the old image.
func FuncHashes(b *isa.Binary) map[string]string {
	h := NewHasher(b)
	out := make(map[string]string, len(b.Symbols))
	for _, sym := range b.Symbols {
		out[sym.Name] = h.Region(sym.Name)
	}
	return out
}

// ProfileHashes fingerprints every profiled library function across a
// profile set: a canonical serialization of the function's return
// behaviours (constant values, errno side effects, computed-return
// flag), hashed to the store's usual 12-hex-digit width. The store
// persists the map in each image manifest so a later session can
// detect a *profile* edit — which moves no code byte and therefore no
// image or region hash — and re-validate exactly the candidates whose
// callee's fault model changed.
func ProfileHashes(ps []*profile.Profile) map[string]string {
	out := make(map[string]string)
	for _, p := range ps {
		for _, name := range p.FuncNames() {
			fp := p.Func(name)
			var b []byte
			b = append(b, p.Lib...)
			b = append(b, 0)
			for _, r := range canonicalReturns(fp) {
				b = append(b, r...)
				b = append(b, 0)
			}
			sum := sha256.Sum256(b)
			// First profile wins on a duplicate name, matching how the
			// generator resolves callees across profiles.
			if _, dup := out[name]; !dup {
				out[name] = hex.EncodeToString(sum[:6])
			}
		}
	}
	return out
}

// canonicalReturns renders a function profile's return behaviours in a
// sorted, unambiguous text form.
func canonicalReturns(fp *profile.FuncProfile) []string {
	out := make([]string, 0, len(fp.Returns))
	for _, r := range fp.Returns {
		if !r.Const {
			out = append(out, "computed")
			continue
		}
		s := fmt.Sprintf("const:%d", r.Value)
		es := make([]string, 0, len(r.Errnos))
		for _, e := range r.Errnos {
			es = append(es, e.String())
		}
		sort.Strings(es)
		for _, e := range es {
			s += ":" + e
		}
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// DiffProfiles compares two ProfileHashes maps and returns the function
// names whose fault model changed or appeared, sorted. (Removed
// functions generate no candidates under the new profile set, so they
// need no re-validation.)
func DiffProfiles(old, new map[string]string) []string {
	var out []string
	for name, h := range new {
		if oh, ok := old[name]; !ok || oh != h {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Funcs is a function-level binary diff.
type Funcs struct {
	Changed []string // body differs (sorted)
	Added   []string // only in the new image (sorted)
	Removed []string // only in the old image (sorted)
}

// Empty reports whether the diff found no function-level difference.
func (d Funcs) Empty() bool {
	return len(d.Changed) == 0 && len(d.Added) == 0 && len(d.Removed) == 0
}

// DiffFuncs compares two FuncHashes maps (old image vs new image).
func DiffFuncs(old, new map[string]string) Funcs {
	var d Funcs
	for name, h := range new {
		oh, ok := old[name]
		switch {
		case !ok:
			d.Added = append(d.Added, name)
		case oh != h:
			d.Changed = append(d.Changed, name)
		}
	}
	for name := range old {
		if _, ok := new[name]; !ok {
			d.Removed = append(d.Removed, name)
		}
	}
	sort.Strings(d.Changed)
	sort.Strings(d.Added)
	sort.Strings(d.Removed)
	return d
}

// Check is the dataflow result at one library call site inside the
// impacted region: which return codes the site's post-call window
// checks (inspection/reporting — `lfi diff`).
type Check struct {
	Callee string
	Eq     []int64 // equality-checked return codes
	Ineq   []int64 // inequality-checked return codes
}

// Set is the result of one impact analysis: the recovery blocks a
// function-level diff can reach.
type Set struct {
	// Changed lists the diffed function names the walk started from
	// (changed + added), sorted.
	Changed []string
	// Blocks is the impacted recovery-block set: a stored entry whose
	// recorded coverage intersects it must re-validate.
	Blocks map[string]bool
	// Checks maps library call-site offsets inside the walked region to
	// their dataflow check results.
	Checks map[uint64]Check
	// Fallback marks an analysis that could not bound the edit's reach;
	// Reason says why. A Fallback set intersects everything — the
	// conservative whole-shard invalidation.
	Fallback bool
	Reason   string
}

// fallback builds a degenerate Set that intersects everything.
func fallback(d Funcs, reason string) *Set {
	changed := append(append([]string(nil), d.Changed...), d.Added...)
	sort.Strings(changed)
	return &Set{Changed: changed, Fallback: true, Reason: reason}
}

// Intersects reports whether a stored entry with the given recorded
// coverage could be affected by the diffed change. A Fallback set
// intersects everything.
func (s *Set) Intersects(blocks []string) bool {
	if s == nil || s.Fallback {
		return true
	}
	for _, id := range blocks {
		if s.Blocks[id] {
			return true
		}
	}
	return false
}

// BlockIDs returns the impacted blocks, sorted (reporting).
func (s *Set) BlockIDs() []string {
	out := make([]string, 0, len(s.Blocks))
	for id := range s.Blocks {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Compute walks the new image's CFGs to bound what the function-level
// diff d can reach. blockOffs maps recovery-block IDs to their check
// sites' code offsets (the descriptor's site map); a block is impacted
// when its offset lies on an instruction the walk visits.
//
// The walk covers, transitively:
//
//   - every changed or added function's own body (cfg.BuildFunc);
//   - the bodies of functions a walked function calls directly (CALLN)
//     — a changed caller can drive an unchanged callee differently;
//   - the post-call window (cfg.BuildPartial, the paper's 100-
//     instruction horizon) after every direct call *to* an affected
//     function — the caller's code is unchanged but the value it
//     receives may not be, so the recovery checks right after the call
//     are impacted, and the caller's own callers are walked the same
//     way.
//
// Any removed function, indirect branch, or truncated walk yields a
// Fallback set: the analysis refuses to claim a bound it cannot prove.
func Compute(b *isa.Binary, d Funcs, blockOffs map[string]uint64) *Set {
	if len(d.Removed) > 0 {
		return fallback(d, fmt.Sprintf("function(s) removed: %v", d.Removed))
	}
	blockAt := make(map[uint64]string, len(blockOffs))
	for id, off := range blockOffs {
		blockAt[off] = id
	}
	symAt := make(map[uint64]string, len(b.Symbols))
	for _, sym := range b.Symbols {
		symAt[sym.Off] = sym.Name
	}

	set := &Set{
		Blocks: make(map[string]bool),
		Checks: make(map[uint64]Check),
	}
	set.Changed = append(append(set.Changed, d.Changed...), d.Added...)
	sort.Strings(set.Changed)

	// Downward closure: changed/added functions, plus every function a
	// walked function calls directly.
	walked := make(map[string]bool)
	work := append([]string(nil), set.Changed...)
	for len(work) > 0 {
		fn := work[0]
		work = work[1:]
		if walked[fn] {
			continue
		}
		walked[fn] = true
		sym, ok := b.FindSymbol(fn)
		if !ok {
			return fallback(d, fmt.Sprintf("changed function %s has no symbol", fn))
		}
		g := cfg.BuildFunc(b, sym)
		if g.Indirect > 0 || g.Truncated {
			return fallback(d, fmt.Sprintf("CFG of %s not fully walkable (indirect=%d truncated=%v)",
				fn, g.Indirect, g.Truncated))
		}
		for _, in := range g.Insts {
			collect(b, in, blockAt, set)
			if in.Op == isa.CALLN {
				if callee, ok := symAt[uint64(uint32(in.Imm))]; ok {
					work = append(work, callee)
				}
			}
		}
	}

	// Upward pass: the post-call windows of every direct call into an
	// affected function, propagating to the caller's callers. (The
	// caller's body is unchanged — only the code after the call sees a
	// possibly-different result, so the window suffices; the window's
	// own direct calls are bounded by the same CFG rules.)
	affected := make(map[string]bool, len(set.Changed))
	for _, fn := range set.Changed {
		affected[fn] = true
	}
	for {
		grew := false
		for off := uint64(0); off+isa.InstSize <= uint64(len(b.Code)); off += isa.InstSize {
			in, err := b.DecodeAt(off)
			if err != nil || in.Op != isa.CALLN {
				continue
			}
			callee, ok := symAt[uint64(uint32(in.Imm))]
			if !ok || !affected[callee] {
				continue
			}
			caller, ok := enclosing(b, off)
			if !ok || affected[caller] {
				continue
			}
			w := cfg.BuildPartial(b, off+isa.InstSize, cfg.DefaultWindow)
			if w.Indirect > 0 || w.Truncated {
				return fallback(d, fmt.Sprintf("post-call window at %#x in %s not fully walkable", off, caller))
			}
			for _, win := range w.Insts {
				collect(b, win, blockAt, set)
			}
			affected[caller] = true
			grew = true
		}
		if !grew {
			return set
		}
	}
}

// collect folds one visited instruction into the set: the recovery
// block at its offset, and — for library calls — the dataflow check
// analysis of its post-call window.
func collect(b *isa.Binary, in isa.Inst, blockAt map[uint64]string, set *Set) {
	if id, ok := blockAt[in.Offset]; ok {
		set.Blocks[id] = true
	}
	if in.Op != isa.CALL {
		return
	}
	if _, done := set.Checks[in.Offset]; done {
		return
	}
	w := cfg.BuildPartial(b, in.Offset+isa.InstSize, cfg.DefaultWindow)
	res := dataflow.Analyze(w)
	set.Checks[in.Offset] = Check{
		Callee: b.ImportName(in.Imm),
		Eq:     res.EqCodes(),
		Ineq:   res.IneqCodes(),
	}
}

// enclosing returns the function symbol containing a code offset.
func enclosing(b *isa.Binary, off uint64) (string, bool) {
	for _, sym := range b.Symbols {
		if off >= sym.Off && off < sym.Off+sym.Size {
			return sym.Name, true
		}
	}
	return "", false
}

// PatchFunc returns a copy of b with fn's prologue immediate flipped —
// an inert, behavior-preserving edit (the built-in targets' prologue
// loads a register nothing reads) that moves exactly that function's
// region hash plus the whole-image hash. It is the standard "simulate a
// one-function commit" knob shared by the tests, `lfi explore -patch`,
// `lfi diff -patch`, and the CI incremental smoke job.
func PatchFunc(b *isa.Binary, fn string) (*isa.Binary, error) {
	sym, ok := b.FindSymbol(fn)
	if !ok {
		return nil, fmt.Errorf("impact: patch: no function %q in %s", fn, b.Name)
	}
	if sym.Size < isa.InstSize {
		return nil, fmt.Errorf("impact: patch: function %q is empty", fn)
	}
	in, err := b.DecodeAt(sym.Off)
	if err != nil || in.Op != isa.MOVI {
		return nil, fmt.Errorf("impact: patch: function %q has no MOVI prologue to flip", fn)
	}
	nb := *b
	nb.Code = append([]byte(nil), b.Code...)
	nb.Code[sym.Off+4] ^= 1 // flip the immediate's low byte
	return &nb, nil
}
