package explore

import (
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"lfi/internal/callgraph"
	"lfi/internal/impact"
)

// ancestorsOf derives the transitive direct callers of fn from the
// summary set's call edges — independently of the callgraph package's
// own recompute-set logic, so the incremental pinning below is not
// tautological.
func ancestorsOf(sums callgraph.Summaries, fn string) []string {
	callers := make(map[string][]string)
	for name, fs := range sums {
		for _, c := range fs.Calls {
			if c.Callee != "" {
				callers[c.Callee] = append(callers[c.Callee], name)
			}
		}
	}
	seen := map[string]bool{fn: true}
	frontier := []string{fn}
	for len(frontier) > 0 {
		next := frontier[0]
		frontier = frontier[1:]
		for _, up := range callers[next] {
			if !seen[up] {
				seen[up] = true
				frontier = append(frontier, up)
			}
		}
	}
	out := make([]string, 0, len(seen))
	for name := range seen {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// TestLintIncremental pins the acceptance property: after a cold lint
// populates the store, editing one function recomputes exactly that
// function's summary plus its call-graph ancestors, and everything
// else is reused.
func TestLintIncremental(t *testing.T) {
	cfg := configFor(t, "minivcs")
	cfg.Store = filepath.Join(t.TempDir(), "store")

	cold, err := Lint(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Baseline != "" || cold.Reused != 0 || len(cold.Recomputed) != cold.Funcs {
		t.Fatalf("cold lint not cold: baseline %q, reused %d, recomputed %d/%d",
			cold.Baseline, cold.Reused, len(cold.Recomputed), cold.Funcs)
	}
	if cold.Counts.Swallowed == 0 {
		t.Fatal("minivcs has planted unchecked sites; swallowed count = 0")
	}
	if len(cold.DeadBlocks) != cold.Counts.Swallowed {
		t.Fatalf("dead blocks %v vs swallowed %d; every swallowed site has a registered recovery block",
			cold.DeadBlocks, cold.Counts.Swallowed)
	}

	// Unchanged image: everything reused, nothing recomputed.
	warm, err := Lint(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(warm.Recomputed) != 0 || warm.Reused != cold.Funcs || warm.Baseline != cold.Image {
		t.Fatalf("warm lint: recomputed %v, reused %d, baseline %q; want none/%d/%q",
			warm.Recomputed, warm.Reused, warm.Baseline, cold.Funcs, cold.Image)
	}
	if !reflect.DeepEqual(warm.Counts, cold.Counts) || !reflect.DeepEqual(warm.Sites, cold.Sites) {
		t.Fatal("warm lint diverges from cold lint on an unchanged image")
	}

	// Deterministic edit target: the first summarized function. The
	// stock applications make no internal calls, so its ancestor set is
	// just itself; the non-trivial chained-ancestor case is pinned by
	// the callgraph package's TestIncrementalRecompute.
	sums := callgraph.Analyze(cfg.Binary, cfg.Profiles).Summaries
	target := ""
	for name := range sums {
		if target == "" || name < target {
			target = name
		}
	}
	if target == "" {
		t.Fatal("no summarized functions in minivcs image")
	}
	want := ancestorsOf(sums, target)

	patched, err := impact.PatchFunc(cfg.Binary, target)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Binary = patched
	inc, err := Lint(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(inc.Recomputed, want) {
		t.Fatalf("patched %s: recomputed %v, want changed function + ancestors %v", target, inc.Recomputed, want)
	}
	if inc.Reused != cold.Funcs-len(want) {
		t.Fatalf("patched %s: reused %d, want %d", target, inc.Reused, cold.Funcs-len(want))
	}
	if inc.Baseline != cold.Image {
		t.Fatalf("patched lint baseline %q, want prior image %q", inc.Baseline, cold.Image)
	}
	// The body edit flips an immediate, not control flow or call
	// structure, so the verdicts must be unchanged.
	if !reflect.DeepEqual(inc.Counts, cold.Counts) {
		t.Fatalf("immaterial patch changed counts: %+v vs %+v", inc.Counts, cold.Counts)
	}
}
