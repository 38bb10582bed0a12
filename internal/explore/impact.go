package explore

// Change-impact-aware store invalidation — the resume path.
//
// Store keys alone invalidate per shard: call-stack candidates whose
// enclosing function changed lose their shard, and every
// occurrence/window candidate — keyed on the whole image — loses its
// cache on *any* edit. So the resume worklist also consults an
// impactPlan built from the store's previous-image function
// fingerprints (persisted in index.json by the last session) and the
// internal/impact CFG walk:
//
//   - an image-keyed entry whose recorded coverage cannot intersect the
//     blocks the edit reaches migrates forward, outcome intact;
//   - everything else re-validates, scheduled ahead of fresh candidates
//     and ordered by expected gain under the store's persisted EWMA
//     cost model (previously-failing entries and entries covering
//     impacted recovery blocks first).
//
// When the analysis cannot bound the edit (indirect branch, truncated
// walk, removed function, no previous-image metadata) the plan degrades
// to whole-shard invalidation — strictly conservative.

import (
	"fmt"
	"strings"

	"lfi/internal/exec"
	"lfi/internal/impact"
)

// ImpactSummary reports what the impact plan did on the resume path —
// the Result.Impact / `lfi explore` shape.
type ImpactSummary struct {
	PrevImage string   // image version the plan diffed against
	Changed   []string // changed/added functions (sorted)
	Blocks    []string // impacted recovery blocks (sorted)
	Fallback  bool     // analysis could not bound the edit
	Reason    string   // why, when Fallback
	// Migrated counts cached entries carried across the edit with
	// outcomes intact; Revalidated counts entries queued for
	// re-execution because the edit may reach their coverage (or, for
	// ProfilesChanged callees, because the fault model they were cached
	// under changed).
	Migrated    int
	Revalidated int
	// ProfilesChanged lists callees whose library fault profile changed
	// since the last save — an edit no code hash can see (sorted).
	ProfilesChanged []string
}

// String renders the one-line impact report.
func (s *ImpactSummary) String() string {
	var prof string
	if len(s.ProfilesChanged) > 0 {
		prof = fmt.Sprintf(", %d profile(s) changed [%s]", len(s.ProfilesChanged), strings.Join(s.ProfilesChanged, " "))
	}
	if s.Fallback {
		return fmt.Sprintf("impact vs %s: fallback to whole-shard invalidation (%s)%s", s.PrevImage, s.Reason, prof)
	}
	return fmt.Sprintf("impact vs %s: %d changed fn [%s], %d impacted blocks, %d migrated, %d revalidated%s",
		s.PrevImage, len(s.Changed), strings.Join(s.Changed, " "), len(s.Blocks), s.Migrated, s.Revalidated, prof)
}

// impactPlan is the per-run decision table: how to treat a candidate
// whose store key no longer matches any cached entry.
type impactPlan struct {
	set      *impact.Set
	oldImage string            // previous image's whole-image region hash
	oldFuncs map[string]string // previous image's function fingerprints
	model    exec.CostModel    // persisted EWMA economics (re-run ordering)
	sum      *ImpactSummary
}

// newImpactPlan diffs the current binary against the most recent other
// image the store retains. nil when the store has no previous image
// with function fingerprints (first run, unchanged image, or a store
// written before fingerprints existed) — callers then fall back to
// whole-shard invalidation.
func newImpactPlan(cfg Config, store *Store) *impactPlan {
	prev, oldFuncs, ok := store.PreviousImage()
	if !ok {
		return nil
	}
	d := impact.DiffFuncs(oldFuncs, impact.FuncHashes(cfg.Binary))
	var set *impact.Set
	if d.Empty() {
		// The image version moved but no function body did: the change
		// is outside every symbol, beyond what the walk can attribute.
		set = &impact.Set{Fallback: true, Reason: "image changed outside function symbols"}
	} else {
		set = impact.Compute(cfg.Binary, d, cfg.BlockOffsets)
	}
	p := &impactPlan{
		set:      set,
		oldImage: regionOfImage(prev),
		oldFuncs: oldFuncs,
		sum: &ImpactSummary{
			PrevImage: prev,
			Changed:   set.Changed,
			Blocks:    set.BlockIDs(),
			Fallback:  set.Fallback,
			Reason:    set.Reason,
		},
	}
	if cost, ok := store.CostModel(); ok {
		p.model = cost
	}
	return p
}

// regionOfImage extracts the code-region hash from an image version
// ("name@hash" — the ImageVersion shape).
func regionOfImage(image string) string {
	if i := strings.LastIndexByte(image, '@'); i >= 0 {
		return image[i+1:]
	}
	return ""
}

// lookupOld finds the previous image's cached entry for a candidate
// whose current key missed: same scenario hash, old region hash (the
// previous image hash for image-keyed candidates, the caller's previous
// fingerprint for call-stack candidates).
func (p *impactPlan) lookupOld(store *Store, c *Candidate) (string, Entry, bool) {
	region := p.oldImage
	if c.Caller != "" {
		region = p.oldFuncs[c.Caller]
	}
	if region == "" {
		return "", Entry{}, false
	}
	key := c.Hash + "@" + region
	e, ok := store.Lookup(key)
	return key, e, ok
}

// revalBoost scores how urgently a stale cached entry should
// re-validate, relative to other pending candidates. Re-validations
// outrank every fresh candidate class (they are the cheapest path back
// to a fully-validated store), and among themselves order by expected
// gain: the persisted EWMA gain-per-run scales up entries that
// previously failed (a bug that might have been fixed — or not) and
// entries covering blocks the edit reaches (the coverage most likely to
// shift).
func (p *impactPlan) revalBoost(e Entry) float64 {
	gain := 1 + p.model.GainPerRun
	b := 120.0
	if e.Failed {
		b += 40 * gain
	}
	if !p.set.Fallback {
		hits := 0
		for _, id := range e.Blocks {
			if p.set.Blocks[id] {
				hits++
			}
		}
		b += 5 * gain * float64(hits)
	}
	return b
}

// DiffReport is the `lfi diff` inspection shape: what the current
// binary's divergence from the store's previous image means for the
// cached candidate space, without executing anything.
type DiffReport struct {
	System    string
	Image     string // current image version
	PrevImage string // previous image the store retains ("" = none)
	Diff      impact.Funcs
	Set       *impact.Set
	// Base-candidate classification against the store (bred mutants
	// ride their parents' regions and follow the same split).
	Cached     int // key unchanged: replays as-is
	Migratable int // key moved, coverage disjoint: migrates intact
	Revalidate int // key moved, possibly affected: re-executes
	Missing    int // never cached under either image
	Entries    int // total cached entries in the store
}

// String renders the report.
func (r *DiffReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "diff %s: %s", r.System, r.Image)
	if r.PrevImage == "" {
		fmt.Fprintf(&b, "\n  no previous image with function fingerprints in the store; nothing to diff\n")
		return b.String()
	}
	fmt.Fprintf(&b, " vs %s\n", r.PrevImage)
	fmt.Fprintf(&b, "  functions: %d changed %v, %d added %v, %d removed %v\n",
		len(r.Diff.Changed), r.Diff.Changed, len(r.Diff.Added), r.Diff.Added, len(r.Diff.Removed), r.Diff.Removed)
	if r.Set.Fallback {
		fmt.Fprintf(&b, "  impact: UNBOUNDED — %s; every cached entry re-validates\n", r.Set.Reason)
	} else {
		fmt.Fprintf(&b, "  impacted recovery blocks (%d): %s\n", len(r.Set.Blocks), strings.Join(r.Set.BlockIDs(), " "))
		for off, ck := range r.Set.Checks {
			fmt.Fprintf(&b, "    site %#x %s: checks eq=%v ineq=%v\n", off, ck.Callee, ck.Eq, ck.Ineq)
		}
	}
	fmt.Fprintf(&b, "  base candidates: %d cached, %d migratable, %d revalidate, %d missing (%d store entries)\n",
		r.Cached, r.Migratable, r.Revalidate, r.Missing, r.Entries)
	return b.String()
}

// Diff loads the store read-only and classifies the candidate space
// against it — the engine behind `lfi diff`. It never executes a test
// and never writes the store.
func Diff(cfg Config) (*DiffReport, error) {
	cfg = cfg.withDefaults()
	if cfg.Store == "" {
		return nil, fmt.Errorf("explore: diff: no store configured")
	}
	store, err := LoadStore(cfg.Store, cfg.System, ImageVersion(cfg.Binary))
	if err != nil {
		return nil, err
	}
	rep := &DiffReport{
		System:  cfg.System,
		Image:   ImageVersion(cfg.Binary),
		Entries: store.Stats().Entries,
	}
	plan := newImpactPlan(cfg, store)
	if plan == nil {
		return rep, nil
	}
	rep.PrevImage = plan.sum.PrevImage
	rep.Diff = impact.DiffFuncs(plan.oldFuncs, impact.FuncHashes(cfg.Binary))
	rep.Set = plan.set
	for _, c := range Generate(cfg) {
		if _, ok := store.Lookup(c.key); ok {
			rep.Cached++
			continue
		}
		_, old, hit := plan.lookupOld(store, c)
		switch {
		case !hit:
			rep.Missing++
		case c.Caller == "" && !plan.set.Intersects(old.Blocks):
			rep.Migratable++
		default:
			rep.Revalidate++
		}
	}
	return rep, nil
}
