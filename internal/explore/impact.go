package explore

// Stale outcomes: the one rule for whether a cached outcome still
// stands for this build.
//
// Every outcome is a real run of one scenario under one build and one
// fault-profile set. Two paths meet outcomes recorded under something
// else: the resume worklist (the store's previous image, the store's
// previous profile fingerprints) and `lfi diff` previewing that resume.
// Both ask a buildDiff, built from the other image's function
// fingerprints persisted in the store's manifest. (No fleet worker of
// another build adds a third: the fleet routes each batch only to
// backends running its image, Batch.Image.) Each candidate gets exactly
// one verdict:
//
//   - replay: its current key hits and its callee's fault profile is
//     unchanged;
//   - revalidate: it was cached (under either build) but its callee's
//     fault profile changed, or the other build's outcome is not
//     provably unaffected — it re-executes ahead of fresh candidates;
//   - adopt: the other build's outcome carries over intact, because the
//     candidate has no enclosing function or that function's
//     fingerprint is identical in both builds, and the recorded
//     coverage misses every block the divergence can reach
//     (internal/impact);
//   - miss: never cached.
//
// When the walk cannot bound the divergence (indirect branch, truncated
// walk, removed function, an image that changed outside function
// symbols) the impact set falls back to one that intersects everything:
// nothing adopts, and the resume degrades to whole-shard invalidation.
// Correctness never depends on the analysis.

import (
	"fmt"
	"slices"
	"strings"

	"lfi/internal/impact"
)

// ImpactSummary reports what the stale-outcome rule did on the resume
// path — the Result.Impact / `lfi explore` shape.
type ImpactSummary struct {
	PrevImage string   // image version the rule diffed against
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

// verdict is the stale-outcome rule's answer for one candidate.
type verdict int

const (
	miss verdict = iota
	replay
	adopt
	revalidate
)

// buildDiff is the divergence between the build an outcome was recorded
// under and ours, plus the fault-profile edit since the store's last
// save. A nil *buildDiff means nothing moved: cached outcomes replay.
type buildDiff struct {
	image  string            // the other build's image version ("" = none, a profile edit alone)
	region string            // its whole-image region hash
	theirs map[string]string // its function fingerprints
	ours   map[string]string // this build's function fingerprints
	set    *impact.Set       // blocks the divergence can reach (nil without another build)
	// profiles lists (sorted) the callees whose fault profile changed
	// since the store's last save. Resume and diff only: a worker runs
	// the scenarios we send, generated from our profiles.
	profiles []string
}

// newBuildDiff diffs this build against image from that image's
// function fingerprints. An image that changed outside every function
// gets an impact set that intersects everything.
func newBuildDiff(cfg Config, ours map[string]string, image string, theirs map[string]string) *buildDiff {
	d := &buildDiff{image: image, region: regionOfImage(image), theirs: theirs, ours: ours}
	if fd := impact.DiffFuncs(theirs, ours); fd.Empty() {
		d.set = &impact.Set{Fallback: true, Reason: "image changed outside function symbols"}
	} else {
		d.set = impact.Compute(cfg.Binary, fd, cfg.BlockOffsets)
	}
	return d
}

// storeDiff is the resume's (and `lfi diff`'s) rule: this build against
// the most recent other image the store retains with fingerprints, and
// the profile set against the last saved profile fingerprints. nil when
// neither exists or moved.
func storeDiff(cfg Config, store *Store, ours, profiles map[string]string) *buildDiff {
	var d *buildDiff
	if prev, theirs, ok := store.PreviousImage(); ok {
		d = newBuildDiff(cfg, ours, prev, theirs)
	}
	if prior, ok := store.PriorProfileHashes(); ok {
		if changed := impact.DiffProfiles(prior, profiles); len(changed) > 0 {
			if d == nil {
				d = &buildDiff{ours: ours}
			}
			d.profiles = changed
		}
	}
	return d
}

// regionOfImage extracts the code-region hash from an image version
// ("name@hash" — the ImageVersion shape).
func regionOfImage(image string) string {
	if i := strings.LastIndexByte(image, '@'); i >= 0 {
		return image[i+1:]
	}
	return ""
}

// profileChanged reports whether callee's fault profile changed.
func (d *buildDiff) profileChanged(callee string) bool {
	_, found := slices.BinarySearch(d.profiles, callee)
	return found
}

// oldKey is the store key c has under the other build: the same
// scenario hash with that build's region — its caller's fingerprint for
// call-stack kinds, its whole-image hash otherwise. "" when the region
// cannot be named.
func (d *buildDiff) oldKey(c *Candidate) string {
	region := d.region
	if c.Caller != "" {
		region = d.theirs[c.Caller]
	}
	if region == "" {
		return ""
	}
	return c.Hash + "@" + region
}

// adoptable is the one adopt predicate: the other build's outcome e for
// c stands for ours.
func (d *buildDiff) adoptable(c *Candidate, e Entry) bool {
	if c.Caller != "" && d.theirs[c.Caller] != d.ours[c.Caller] {
		return false
	}
	return !d.set.Intersects(e.Blocks())
}

// classify gives c its verdict against the store, with the cached entry
// and, for an entry found under the other build, its key there. A key
// hit costs no allocation; the old key is built only on a miss.
func (d *buildDiff) classify(store *Store, c *Candidate) (verdict, Entry, string) {
	e, ok := store.Lookup(c.key)
	if d == nil {
		if ok {
			return replay, e, ""
		}
		return miss, e, ""
	}
	var oldKey string
	if !ok {
		if oldKey = d.oldKey(c); oldKey != "" {
			e, ok = store.Lookup(oldKey)
		}
		if !ok {
			return miss, e, ""
		}
	}
	switch {
	case d.profileChanged(c.Callee):
		return revalidate, e, oldKey
	case oldKey == "":
		return replay, e, ""
	case d.adoptable(c, e):
		return adopt, e, oldKey
	}
	return revalidate, e, oldKey
}

// revalBoost scores how urgently a stale cached entry should
// re-validate, relative to other pending candidates. Re-validations
// outrank every fresh candidate class (they are the cheapest path back
// to a fully-validated store). An entry cached under a changed fault
// profile ranks highest, failed ones first — a bug found under the old
// profile is the outcome most worth re-confirming under the new one.
// Code-edit re-validations rank entries that previously failed (a bug
// that might have been fixed — or not) and entries covering blocks the
// edit reaches (the coverage most likely to shift) first.
func (d *buildDiff) revalBoost(c *Candidate, e Entry) float64 {
	if d.profileChanged(c.Callee) {
		b := 125.0
		if e.Failed {
			b += 40
		}
		return b
	}
	b := 120.0
	if e.Failed {
		b += 40
	}
	if !d.set.Fallback {
		hits := 0
		for _, id := range e.Blocks() {
			if d.set.Blocks[id] {
				hits++
			}
		}
		b += 5 * float64(hits)
	}
	return b
}

// summary starts the resume's impact report; image names this build,
// the diff base of a profile edit alone.
func (d *buildDiff) summary(image string) *ImpactSummary {
	s := &ImpactSummary{PrevImage: d.image, ProfilesChanged: d.profiles}
	if d.set == nil {
		s.PrevImage = image
		return s
	}
	s.Changed, s.Blocks = d.set.Changed, d.set.BlockIDs()
	s.Fallback, s.Reason = d.set.Fallback, d.set.Reason
	return s
}

// DiffReport is the `lfi diff` inspection shape: what the current
// binary's divergence from the store's previous image, and the fault
// profiles' divergence from the last saved ones, mean for the cached
// candidate space, without executing anything.
type DiffReport struct {
	System    string
	Image     string // current image version
	PrevImage string // previous image the store retains ("" = none)
	Diff      impact.Funcs
	Set       *impact.Set
	// ProfilesChanged lists callees whose fault profile changed since
	// the store's last save (sorted); their cached entries count under
	// Revalidate.
	ProfilesChanged []string
	// Base-candidate classification against the store (bred mutants
	// ride their parents' regions and follow the same split).
	Cached     int // key unchanged: replays as-is
	Migratable int // key moved, coverage disjoint: migrates intact
	Revalidate int // possibly affected, or profile changed: re-executes
	Missing    int // never cached under either image
	Entries    int // total cached entries in the store
}

// String renders the report.
func (r *DiffReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "diff %s: %s", r.System, r.Image)
	if r.PrevImage == "" && len(r.ProfilesChanged) == 0 {
		fmt.Fprintf(&b, "\n  no previous image with function fingerprints and no fault-profile edit in the store; nothing to diff\n")
		return b.String()
	}
	if r.PrevImage != "" {
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
	} else {
		b.WriteByte('\n')
	}
	if len(r.ProfilesChanged) > 0 {
		fmt.Fprintf(&b, "  fault profiles changed (%d): %s; their cached entries re-validate\n",
			len(r.ProfilesChanged), strings.Join(r.ProfilesChanged, " "))
	}
	fmt.Fprintf(&b, "  base candidates: %d cached, %d migratable, %d revalidate, %d missing (%d store entries)\n",
		r.Cached, r.Migratable, r.Revalidate, r.Missing, r.Entries)
	return b.String()
}

// Diff loads the store read-only and classifies the candidate space
// against it with the resume's own rule — the engine behind `lfi diff`.
// It never executes a test and never writes the store.
func Diff(cfg Config) (*DiffReport, error) {
	cfg = cfg.withDefaults()
	if cfg.Store == "" {
		return nil, fmt.Errorf("explore: diff: no store configured")
	}
	image := ImageVersion(cfg.Binary)
	store, err := LoadStore(cfg.Store, cfg.System, image)
	if err != nil {
		return nil, err
	}
	rep := &DiffReport{System: cfg.System, Image: image, Entries: store.Stats().Entries}
	ours := impact.FuncHashes(cfg.Binary)
	d := storeDiff(cfg, store, ours, impact.ProfileHashes(cfg.Profiles))
	if d == nil {
		return rep, nil
	}
	rep.PrevImage, rep.Set, rep.ProfilesChanged = d.image, d.set, d.profiles
	if d.image != "" {
		rep.Diff = impact.DiffFuncs(d.theirs, ours)
	}
	k := newKeyer(cfg.Binary)
	for _, c := range generate(cfg) {
		k.key(c)
		switch v, _, _ := d.classify(store, c); v {
		case replay:
			rep.Cached++
		case adopt:
			rep.Migratable++
		case revalidate:
			rep.Revalidate++
		default:
			rep.Missing++
		}
	}
	return rep, nil
}
