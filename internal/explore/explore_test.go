package explore

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"lfi/internal/callsite"
	"lfi/internal/impact"
	"lfi/internal/isa"
	"lfi/internal/system"

	// configFor resolves systems through the registry, which is
	// populated by importing the system packages.
	_ "lfi/internal/system/all"
)

// configFor returns the exploration config of a registered system.
func configFor(t *testing.T, app string) Config {
	t.Helper()
	d, ok := system.Lookup(app)
	if !ok {
		t.Fatalf("%s not registered", app)
	}
	return ConfigForSystem(d)
}

// exploreOne runs the driver over a single config, unbudgeted, and
// returns that system's result.
func exploreOne(cfg Config) (*Result, error) {
	res, err := Explore(context.Background(), 0, cfg)
	if res == nil || len(res.Results) == 0 {
		return nil, err
	}
	return res.Results[0], err
}

func TestGenerateDeterministicAndDeduped(t *testing.T) {
	cfg := configFor(t, "minidb")
	a := Generate(cfg)
	b := Generate(cfg)
	if len(a) == 0 {
		t.Fatal("no candidates generated")
	}
	if len(a) != len(b) {
		t.Fatalf("nondeterministic candidate count: %d vs %d", len(a), len(b))
	}
	seen := map[string]bool{}
	for i := range a {
		if a[i].Hash != b[i].Hash || a[i].Scenario.Name != b[i].Scenario.Name {
			t.Fatalf("candidate %d differs across generations: %s vs %s", i, a[i].Scenario.Name, b[i].Scenario.Name)
		}
		if seen[a[i].Hash] {
			t.Fatalf("duplicate candidate hash %s (%s)", a[i].Hash, a[i].Scenario.Name)
		}
		seen[a[i].Hash] = true
	}

	// The occurrence dimension is gated: only functions with at least
	// one Unchecked/Partial site participate.
	vulnerable := map[string]bool{}
	for _, c := range a {
		if c.Kind != Occurrence && c.Class != callsite.Checked {
			vulnerable[c.Callee] = true
		}
	}
	kinds := map[Kind]int{}
	for _, c := range a {
		kinds[c.Kind]++
		if c.Kind == Occurrence && !vulnerable[c.Callee] {
			t.Errorf("occurrence candidate for fully-checked callee %s", c.Callee)
		}
	}
	if kinds[Vulnerable] == 0 || kinds[Exercise] == 0 || kinds[Occurrence] == 0 {
		t.Fatalf("missing candidate kinds: %v", kinds)
	}
}

// TestExploreMinidbCoverageGain: exploration must keep covering
// recovery blocks after its first batch and beat the suite baseline.
// (Stock-bug rediscovery for every registered system, minidb included,
// is pinned by the registry conformance test at the repository root.)
func TestExploreMinidbCoverageGain(t *testing.T) {
	cfg := configFor(t, "minidb")
	res, err := exploreOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Executed == 0 || res.Replayed != 0 {
		t.Fatalf("executed %d, replayed %d; want all executed", res.Executed, res.Replayed)
	}
	if !res.CoverageGain() {
		t.Fatalf("no recovery-coverage gain over the first batch:\n%s", res)
	}
	if res.Final.BlocksCovered <= res.Baseline.BlocksCovered {
		t.Fatalf("exploration added no recovery coverage over the suite baseline:\n%s", res)
	}
}

// TestExploreResume checks the incremental store: a second run against
// an unchanged target replays every outcome and executes nothing, and
// reports the same bugs and coverage.
func TestExploreResume(t *testing.T) {
	cfg := configFor(t, "minidb")
	cfg.Store = filepath.Join(t.TempDir(), "store")

	first, err := exploreOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if first.Executed == 0 {
		t.Fatal("first run executed nothing")
	}
	if _, err := os.Stat(cfg.Store); err != nil {
		t.Fatalf("store not written: %v", err)
	}

	second, err := exploreOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if second.Executed != 0 {
		t.Fatalf("second run re-executed %d scenarios", second.Executed)
	}
	if second.Replayed != first.Executed {
		t.Fatalf("second run replayed %d, want %d", second.Replayed, first.Executed)
	}
	if !reflect.DeepEqual(bugSigs(first), bugSigs(second)) {
		t.Fatalf("bug signatures diverged across resume:\n%v\nvs\n%v", bugSigs(first), bugSigs(second))
	}
	if second.Final.BlocksCovered != first.Final.BlocksCovered {
		t.Fatalf("recovery coverage diverged across resume: %s vs %s", first.Final, second.Final)
	}
	if second.Total.BlocksCovered != first.Total.BlocksCovered {
		t.Fatalf("total coverage diverged across resume: %s vs %s", first.Total, second.Total)
	}

	// A store whose index still carries the gain EWMA that earlier
	// builds persisted under "cost" loads, and the field steers
	// nothing: the run starts from the prior, replays everything, and
	// its Save writes the index back without it.
	index := filepath.Join(cfg.Store, cfg.System, indexName)
	clean, err := os.ReadFile(index)
	if err != nil {
		t.Fatal(err)
	}
	withCost := append(bytes.TrimSuffix(clean, []byte("}\n")), `,"cost":{"gain_per_run":0.25,"batches":7}}`+"\n"...)
	if err := os.WriteFile(index, withCost, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := newRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.gain != (gainEWMA{}) {
		t.Fatalf("run over an index with cost starts from gain %+v, want the prior", r.gain)
	}
	third, err := r.finish(nil)
	if err != nil {
		t.Fatal(err)
	}
	if third.Executed != 0 || third.Replayed != first.Executed {
		t.Fatalf("resume over an index with cost executed %d, replayed %d; want 0, %d", third.Executed, third.Replayed, first.Executed)
	}
	if got, err := os.ReadFile(index); err != nil || !bytes.Equal(got, clean) {
		t.Fatalf("index after Save (err %v):\n%s\nwant it without cost:\n%s", err, got, clean)
	}
}

func bugSigs(r *Result) []string {
	out := make([]string, 0, len(r.Bugs))
	for _, b := range r.Bugs {
		out = append(out, b.Signature)
	}
	return out
}

// TestExploreBudget bounds the run and checks the budget counts only
// executed tests: the last batch shrinks to what the budget has left.
func TestExploreBudget(t *testing.T) {
	const budget = batchSize + 4
	all, err := Explore(context.Background(), budget, configFor(t, "minidb"))
	if err != nil {
		t.Fatal(err)
	}
	res := all.Results[0]
	if res.Executed != budget || all.Executed != budget {
		t.Fatalf("executed %d runs, budget was %d", res.Executed, budget)
	}
	if len(res.Batches) != 2 || res.Batches[0].Runs != batchSize || res.Batches[1].Runs != 4 {
		t.Fatalf("unexpected batching under budget: %+v", res.Batches)
	}
}

// TestGainEWMA: batch yields fold into the explorer's gain-per-run
// EWMA, and the prior stands until the first batch.
func TestGainEWMA(t *testing.T) {
	var g gainEWMA
	if got := g.estimate(0.5); got != 0.5 {
		t.Fatalf("prior not honored before observations: %v", got)
	}
	g.observe(10, 5) // 0.5 gain/run
	g.observe(10, 0)
	want := (1-gainAlpha)*0.5 + gainAlpha*0
	if got := g.estimate(99); got-want > 1e-9 || want-got > 1e-9 || g.Batches != 2 {
		t.Fatalf("gain EWMA: got %v over %d batches, want %v over 2", got, g.Batches, want)
	}
}

// TestExploreDeterministic runs twice without a store and expects
// identical bug lists and batch structure.
func TestExploreDeterministic(t *testing.T) {
	cfg := configFor(t, "minidb")
	a, err := exploreOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := exploreOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bugSigs(a), bugSigs(b)) {
		t.Fatalf("bugs diverged:\n%v\nvs\n%v", bugSigs(a), bugSigs(b))
	}
	if len(a.Batches) != len(b.Batches) {
		t.Fatalf("batch counts diverged: %d vs %d", len(a.Batches), len(b.Batches))
	}
	for i := range a.Batches {
		if !reflect.DeepEqual(a.Batches[i].NewBlocks, b.Batches[i].NewBlocks) {
			t.Fatalf("batch %d deltas diverged", i)
		}
	}
}

// TestExploreScheduleIndependentOfStore: the store is for result reuse
// alone and never steers the schedule. On every registered system,
// unbudgeted and under a shared budget of 1000, a session without a
// store and one with a fresh store log the same batch lines and reach
// the same per-system results — executed, bugs, coverage, and so the
// budget split (TestBudgetCurve's golden).
func TestExploreScheduleIndependentOfStore(t *testing.T) {
	session := func(budget int, store string) (string, []*Result) {
		t.Helper()
		var log bytes.Buffer
		var cfgs []Config
		for _, d := range system.All() {
			cfg := ConfigForSystem(d)
			cfg.Store, cfg.Log, cfg.Seed = store, &log, 1
			cfgs = append(cfgs, cfg)
		}
		res, err := Explore(context.Background(), budget, cfgs...)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res.Results {
			r.Elapsed, r.StoreStats = 0, nil
		}
		return log.String(), res.Results
	}
	for _, budget := range []int{0, 1000} {
		wantLog, want := session(budget, "")
		gotLog, got := session(budget, t.TempDir())
		if gotLog != wantLog {
			gl, wl := strings.Split(gotLog, "\n"), strings.Split(wantLog, "\n")
			i := 0
			for i < min(len(gl), len(wl))-1 && gl[i] == wl[i] {
				i++
			}
			t.Errorf("budget %d: log line %d with a fresh store %q, without a store %q", budget, i, gl[i], wl[i])
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("budget %d: results differ with a fresh store", budget)
		}
		if budget == 0 {
			continue
		}
		var split []int
		for _, r := range got {
			split = append(split, r.Executed)
		}
		if wantSplit := []int{160, 216, 256, 128, 112, 128}; !slices.Equal(split, wantSplit) {
			t.Errorf("budget %d split %v, want %v", budget, split, wantSplit)
		}
	}
}

// patched returns a copy of bin with the prologue immediate of fn
// flipped — an inert change (r13 feeds nothing) that moves only that
// function's code-region hash, plus the whole-image hash.
func patched(t *testing.T, bin *isa.Binary, fn string) *isa.Binary {
	t.Helper()
	nb := *bin
	nb.Code = append([]byte(nil), bin.Code...)
	sym, ok := nb.FindSymbol(fn)
	if !ok {
		t.Fatalf("symbol %s not found", fn)
	}
	nb.Code[sym.Off+4] = 1 // movi r13, 0 -> movi r13, 1
	return &nb
}

// TestShardInvalidation pins the incremental-reuse contract of the
// sharded store: after a change to one application function, at most
// the candidates aimed at that function — its call-stack candidates,
// plus the image-wide occurrence/window dimension — re-execute (the
// diff-aware resume migrates some of those too; TestImpactInvalidation
// pins how many); every other function's shard replays, and the old
// image's shards stay on disk next to the new ones.
func TestShardInvalidation(t *testing.T) {
	const changed = "errmsg_load"
	cfg := configFor(t, "minidb")
	cfg.Store = filepath.Join(t.TempDir(), "store")

	first, err := exploreOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if first.Executed == 0 || first.Replayed != 0 {
		t.Fatalf("first run: executed %d, replayed %d", first.Executed, first.Replayed)
	}

	// Entries that survive the change: call-stack candidates in other
	// functions. Occurrence and window candidates target the whole
	// image, so the image edit invalidates them by design. Bred mutants
	// ride their parent's region: stack windows survive with their
	// caller, global windows fall with the image — so the survivor count
	// from the base candidates is a floor on replays, and every entry is
	// either replayed or re-executed, never both or neither.
	surviving := 0
	for _, c := range Generate(cfg) {
		if c.Kind != Occurrence && c.Caller != changed {
			surviving++
		}
	}
	if surviving == 0 {
		t.Fatal("no surviving candidates; test is vacuous")
	}

	oldRegion := impact.FuncHashes(cfg.Binary)[changed]
	cfg.Binary = patched(t, cfg.Binary, changed)
	newRegion := impact.FuncHashes(cfg.Binary)[changed]
	second, err := exploreOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if second.Replayed < surviving {
		t.Fatalf("replayed %d entries, want >= %d (surviving call-stack candidates)",
			second.Replayed, surviving)
	}
	if second.Executed+second.Replayed != first.Executed {
		t.Fatalf("executed %d + replayed %d, want total %d (every first-run entry exactly once)",
			second.Executed, second.Replayed, first.Executed)
	}
	if !reflect.DeepEqual(bugSigs(first), bugSigs(second)) {
		t.Fatalf("bug signatures diverged across the code change:\n%v\nvs\n%v", bugSigs(first), bugSigs(second))
	}

	// Both image versions' manifests now coexist in the store.
	st, err := LoadStore(cfg.Store, cfg.System, ImageVersion(cfg.Binary))
	if err != nil {
		t.Fatal(err)
	}
	if imgs := st.Images(); len(imgs) != 2 {
		t.Fatalf("want 2 retained image manifests, have %v", imgs)
	}
	// The changed function's region under either image keeps its
	// entries on disk, next to each other.
	regions := st.Shards()
	if oldRegion == newRegion || !slices.Contains(regions, oldRegion) || !slices.Contains(regions, newRegion) {
		t.Fatalf("regions on disk %v, want both %s (old) and %s (new)", regions, oldRegion, newRegion)
	}
}

// TestWindowMutantsDeterministic: breeding must be reproducible — the
// same config twice yields the same mutant count and the same bugs.
func TestWindowMutantsDeterministic(t *testing.T) {
	cfg := configFor(t, "pbft")
	a, err := exploreOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := exploreOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Mutants != b.Mutants || a.Executed != b.Executed {
		t.Fatalf("mutation nondeterministic: %d/%d vs %d/%d mutants/executed",
			a.Mutants, a.Executed, b.Mutants, b.Executed)
	}
	if !reflect.DeepEqual(bugSigs(a), bugSigs(b)) {
		t.Fatalf("bugs diverged:\n%v\nvs\n%v", bugSigs(a), bugSigs(b))
	}
}

// cancelAfterBatches is a Config.Log sink that cancels a context once
// it has seen n per-batch progress lines — a deterministic way to
// interrupt an exploration mid-run.
type cancelAfterBatches struct {
	cancel  context.CancelFunc
	n       int
	batches int
}

func (c *cancelAfterBatches) Write(p []byte) (int, error) {
	if strings.Contains(string(p), ": batch ") {
		if c.batches++; c.batches >= c.n {
			c.cancel()
		}
	}
	return len(p), nil
}

// TestExploreCancelLeavesResumableStore pins the Ctrl-C contract:
// cancelling mid-run returns the partial result with ctx.Err(), the
// sharded store is flushed (no torn shards), and the next run resumes
// from it — replaying everything the interrupted run completed and
// converging on the same bugs as an uninterrupted run.
func TestExploreCancelLeavesResumableStore(t *testing.T) {
	full, err := exploreOne(configFor(t, "minidb"))
	if err != nil {
		t.Fatal(err)
	}

	cfg := configFor(t, "minidb")
	cfg.Store = filepath.Join(t.TempDir(), "store")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg.Log = &cancelAfterBatches{cancel: cancel, n: 2}

	all, err := Explore(ctx, 0, cfg)
	if err != context.Canceled {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	partial := all.Results[0]
	if partial.Executed == 0 {
		t.Fatalf("cancelled run reported no progress: %+v", partial)
	}
	if partial.Executed >= full.Executed {
		t.Fatalf("cancellation did not interrupt: %d vs full %d", partial.Executed, full.Executed)
	}

	cfg.Log = nil
	resumed, err := exploreOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Replayed != partial.Executed {
		t.Fatalf("resume replayed %d, want the %d completed before cancel", resumed.Replayed, partial.Executed)
	}
	if resumed.Executed+resumed.Replayed != full.Executed {
		t.Fatalf("resume executed %d + replayed %d != full %d",
			resumed.Executed, resumed.Replayed, full.Executed)
	}
	if !reflect.DeepEqual(bugSigs(full), bugSigs(resumed)) {
		t.Fatalf("bugs diverged after cancel+resume:\n%v\nvs\n%v", bugSigs(full), bugSigs(resumed))
	}
}

// killAfterBatches is a Config.Log sink that simulates a hard kill: on
// its n-th per-batch progress line it copies the store directory, then
// cancels the run. The copy holds what a kill at that moment leaves —
// the outcomes of the n-1 batches before, and no finish, no compaction
// and no end-of-session index.
type killAfterBatches struct {
	t        *testing.T
	from, to string
	cancel   context.CancelFunc
	n        int
	batches  int
}

func (k *killAfterBatches) Write(p []byte) (int, error) {
	if strings.Contains(string(p), ": batch ") {
		if k.batches++; k.batches == k.n {
			copyDir(k.t, k.from, k.to)
			k.cancel()
		}
	}
	return len(p), nil
}

// copyDir copies the regular files of the tree at from to to.
func copyDir(t *testing.T, from, to string) {
	t.Helper()
	err := filepath.WalkDir(from, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(from, p)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(to, rel), 0o755)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(to, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// killedStore runs cfg on a fresh store and returns the copy a hard
// kill at the n-th batch line leaves, plus the partial result.
func killedStore(t *testing.T, cfg Config, n int) (string, *Result) {
	t.Helper()
	dir := t.TempDir()
	cfg.Store = filepath.Join(dir, "store")
	killed := filepath.Join(dir, "killed")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg.Log = &killAfterBatches{t: t, from: cfg.Store, to: killed, cancel: cancel, n: n}
	all, err := Explore(ctx, 0, cfg)
	if err != context.Canceled {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if _, err := os.Stat(filepath.Join(killed, cfg.System, journalName)); err != nil {
		t.Fatalf("killed store holds no journal: %v", err)
	}
	return killed, all.Results[0]
}

// TestExploreHardKillResume pins the kill contract: a store copied
// mid-run, with only the per-batch journal appends behind it, resumes
// by replaying every outcome of the batches logged before the kill, and
// converges on the uninterrupted run's executed count and bugs.
func TestExploreHardKillResume(t *testing.T) {
	full, err := exploreOne(configFor(t, "minidb"))
	if err != nil {
		t.Fatal(err)
	}
	const n = 4
	killed, partial := killedStore(t, configFor(t, "minidb"), n)
	before := 0
	for _, b := range partial.Batches[:n-1] {
		before += b.Runs
	}

	cfg := configFor(t, "minidb")
	cfg.Store = killed
	resumed, err := exploreOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Replayed != before {
		t.Fatalf("resume replayed %d, want the %d outcomes of the %d batches before the kill", resumed.Replayed, before, n-1)
	}
	if resumed.Executed+resumed.Replayed != full.Executed {
		t.Fatalf("resume executed %d + replayed %d != full %d", resumed.Executed, resumed.Replayed, full.Executed)
	}
	if !reflect.DeepEqual(bugSigs(full), bugSigs(resumed)) {
		t.Fatalf("bugs diverged after kill+resume:\n%v\nvs\n%v", bugSigs(full), bugSigs(resumed))
	}
	if _, err := os.Stat(filepath.Join(killed, cfg.System, journalName)); !os.IsNotExist(err) {
		t.Fatalf("completed resume left the journal: %v", err)
	}
}

// TestExploreHardKillProfileEdit: a fresh store killed after two
// batches already records the fault profile its outcomes were produced
// under, so a resume after a profile edit sees the edit.
func TestExploreHardKillProfileEdit(t *testing.T) {
	killed, _ := killedStore(t, configFor(t, "minidb"), 3)
	cfg := configFor(t, "minidb")
	cfg.Store = killed
	cfg.Profiles = dupReturnProfiles(t, cfg.Profiles, "read")
	resumed, err := exploreOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Impact == nil || !reflect.DeepEqual(resumed.Impact.ProfilesChanged, []string{"read"}) {
		t.Fatalf("resume after kill and profile edit: impact %+v, want profiles changed [read]", resumed.Impact)
	}
}

// TestExploreAllSharedStore: one cross-system session over minidb and
// minivcs, sharing a store root, must find both systems' bugs; a second
// session resumes from both stores and executes nothing.
func TestExploreAllSharedStore(t *testing.T) {
	root := filepath.Join(t.TempDir(), "store")
	configs := func() []Config {
		var cfgs []Config
		for _, sys := range []string{"minidb", "minivcs"} {
			cfg := configFor(t, sys)
			cfg.Store = root
			cfgs = append(cfgs, cfg)
		}
		return cfgs
	}

	first, err := Explore(context.Background(), 0, configs()...)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Results) != 2 || first.Executed == 0 || first.Replayed != 0 {
		t.Fatalf("unexpected first multi run: %d results, %d executed, %d replayed",
			len(first.Results), first.Executed, first.Replayed)
	}
	bySystem := map[string]int{}
	for _, b := range first.CrashBugs() {
		bySystem[b.System]++
	}
	if bySystem["minidb"] < 2 || bySystem["minivcs"] < 5 {
		t.Fatalf("cross-system run missed stock bugs: %v", bySystem)
	}

	second, err := Explore(context.Background(), 0, configs()...)
	if err != nil {
		t.Fatal(err)
	}
	if second.Executed != 0 {
		t.Fatalf("second multi run re-executed %d scenarios", second.Executed)
	}
	if second.Replayed != first.Executed {
		t.Fatalf("second multi run replayed %d, want %d", second.Replayed, first.Executed)
	}
	if !reflect.DeepEqual(multiBugSigs(first), multiBugSigs(second)) {
		t.Fatalf("bugs diverged across multi resume:\n%v\nvs\n%v", multiBugSigs(first), multiBugSigs(second))
	}

	// The shared budget is a cross-system total.
	if err := os.RemoveAll(root); err != nil {
		t.Fatal(err)
	}
	capped, err := Explore(context.Background(), 10, configs()...)
	if err != nil {
		t.Fatal(err)
	}
	if capped.Executed != 10 {
		t.Fatalf("budgeted multi run executed %d, want 10", capped.Executed)
	}
}

// TestExploreAllRejectsDuplicateSystems: two runs of one system would
// double-execute its candidate space and race two Store instances over
// the same shard directory, so the engine refuses.
func TestExploreAllRejectsDuplicateSystems(t *testing.T) {
	cfg := configFor(t, "minidb")
	if _, err := Explore(context.Background(), 0, cfg, cfg); err == nil {
		t.Fatal("duplicate system accepted")
	}
}

// TestExploreSetupDeterministic: the runs are set up in parallel, yet
// the session reads as if they were set up one after another. On a
// converged store over every system, the -v log (each run's replay
// line, in input order) is byte-identical across sessions and under
// GOMAXPROCS 1 and 2. With two refused stores, the error names the
// first in input order, although with every setup started at once the
// second (miniweb, the quickest to set up) fails first.
func TestExploreSetupDeterministic(t *testing.T) {
	root := filepath.Join(t.TempDir(), "store")
	cfgs := allConfigs(nil, root)
	if _, err := Explore(context.Background(), 0, cfgs...); err != nil {
		t.Fatal(err)
	}
	session := func() string {
		t.Helper()
		var log bytes.Buffer
		logged := slices.Clone(cfgs)
		for i := range logged {
			logged[i].Log = &log
		}
		res, err := Explore(context.Background(), 0, logged...)
		if err != nil {
			t.Fatal(err)
		}
		if res.Executed != 0 {
			t.Fatalf("converged session executed %d", res.Executed)
		}
		return log.String()
	}
	want := session()
	var order []string
	for _, line := range strings.Split(strings.TrimSpace(want), "\n") {
		order = append(order, strings.Fields(line)[1])
	}
	var systems []string
	for _, cfg := range cfgs {
		systems = append(systems, cfg.System+":")
	}
	if !slices.Equal(order, systems) {
		t.Fatalf("setup log is not one replay line per system in input order:\n%s", want)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for i := 0; i < 10; i++ {
			if got := session(); got != want {
				t.Fatalf("GOMAXPROCS %d, session %d: setup log differs:\n%s\nwant:\n%s", procs, i, got, want)
			}
		}
	}

	refused := filepath.Join(t.TempDir(), "refused")
	for _, i := range []int{1, 3} {
		dir := filepath.Join(refused, cfgs[i].System)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		index := `{"system":"` + cfgs[i].System + `"}` + "\n"
		if err := os.WriteFile(filepath.Join(dir, indexName), []byte(index), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	first := filepath.Join(refused, cfgs[1].System)
	runtime.GOMAXPROCS(len(cfgs))
	for i := 0; i < 10; i++ {
		res, err := Explore(context.Background(), 0, allConfigs(nil, refused)...)
		if res != nil || err == nil || !strings.Contains(err.Error(), first+" ") {
			t.Fatalf("session %d: got %v, %v; want the error naming %s", i, res, err, first)
		}
	}
}

func multiBugSigs(m *MultiResult) []string {
	out := make([]string, 0, len(m.Bugs))
	for _, b := range m.Bugs {
		out = append(out, b.System+"/"+b.Signature)
	}
	return out
}

func TestStoreShardPrune(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store")
	st, err := LoadStore(path, "sys", "img@1")
	if err != nil {
		t.Fatal(err)
	}
	st.Put("keep@aaaa", Entry{Name: "keep"})
	st.Put("stale@bbbb", Entry{Name: "stale"})
	if err := st.Save(map[string]bool{"keep@aaaa": true}); err != nil {
		t.Fatal(err)
	}
	// The unreferenced region's record is gone from disk.
	snap, err := os.ReadFile(filepath.Join(path, "sys", snapshotName))
	if err != nil {
		t.Fatal(err)
	}
	if got := snapshotKeys(t, snap); !reflect.DeepEqual(got, []string{"keep@aaaa"}) || bytes.Contains(snap, []byte("bbbb")) {
		t.Fatalf("stale region still on disk: snapshot records %v", got)
	}
	st2, err := LoadStore(path, "sys", "img@2")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st2.Lookup("keep@aaaa"); !ok {
		t.Fatal("kept entry lost")
	}
	if _, ok := st2.Lookup("stale@bbbb"); ok {
		t.Fatal("stale entry survived pruning")
	}
	// Two systems coexist under one root, each in its own directory;
	// neither sees or clobbers the other's entries.
	other, err := LoadStore(path, "other", "img@1")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := other.Lookup("keep@aaaa"); ok {
		t.Fatal("cross-system entry visible")
	}
	other.Put("mine@cccc", Entry{Name: "mine"})
	if err := other.Save(map[string]bool{"mine@cccc": true}); err != nil {
		t.Fatal(err)
	}
	again, err := LoadStore(path, "sys", "img@2")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := again.Lookup("keep@aaaa"); !ok {
		t.Fatal("sys entry destroyed by other system's save")
	}
}
