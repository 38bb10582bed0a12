package explore

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"lfi/internal/system"
)

// TestBudgetedDrainMatchesUnbudgeted: a store records only outcomes
// and the fingerprints they were verified under, so how sessions split
// the work never shows once a drain finishes it. On every registered
// system, fresh and after a fault-profile edit of its most frequent
// callee, budgeted sessions followed by an unbudgeted one leave a store
// byte-identical to one unbudgeted session's, index.json included, and
// execute what it executes. A budget stop drops the profile
// re-validations it left undone, so the next session re-runs them as
// misses instead of replaying outcomes of the old fault model.
func TestBudgetedDrainMatchesUnbudgeted(t *testing.T) {
	// The edited systems' pinned splits: budget 16, then the drain.
	drains := map[string]struct {
		callee string
		drain  int
	}{
		"minidb":  {"read", 160},
		"minidns": {"open", 188},
		"raft":    {"fopen", 140},
	}
	for _, d := range system.All() {
		t.Run(d.Name, func(t *testing.T) {
			cfg := ConfigForSystem(d)
			want := filepath.Join(t.TempDir(), "want")
			sessions(t, cfg, want, 0)
			split := filepath.Join(t.TempDir(), "split")
			sessions(t, cfg, split, 7, 50, 33, 0)
			sameStore(t, "fresh, budgets 7/50/33", want, split)

			callee := mostFrequentCallee(cfg)
			if pin, ok := drains[d.Name]; ok && pin.callee != callee {
				t.Fatalf("most frequent callee %s, want %s", callee, pin.callee)
			}
			edited := cfg
			edited.Profiles = dupReturnProfiles(t, cfg.Profiles, callee)
			wantEd := filepath.Join(t.TempDir(), "want")
			copyDir(t, want, wantEd)
			unbudgeted := sessions(t, edited, wantEd, 0)[0]
			if unbudgeted.Impact == nil || !slices.Equal(unbudgeted.Impact.ProfilesChanged, []string{callee}) {
				t.Fatalf("unbudgeted %s edit: impact %+v", callee, unbudgeted.Impact)
			}
			for _, budgets := range [][]int{{16, 0}, {16, 5, 0}} {
				got := filepath.Join(t.TempDir(), "split")
				copyDir(t, want, got)
				res := sessions(t, edited, got, budgets...)
				sameStore(t, fmt.Sprintf("%s edit, budgets %v", callee, budgets), wantEd, got)
				executed := 0
				for _, r := range res {
					executed += r.Executed
				}
				if executed != unbudgeted.Executed {
					t.Errorf("%s edit, budgets %v: executed %d in total, unbudgeted %d", callee, budgets, executed, unbudgeted.Executed)
				}
				last := res[len(res)-1]
				if !reflect.DeepEqual(bugSigs(last), bugSigs(unbudgeted)) {
					t.Errorf("%s edit, budgets %v: bugs %v, unbudgeted %v", callee, budgets, bugSigs(last), bugSigs(unbudgeted))
				}
				if pin, ok := drains[d.Name]; ok && len(budgets) == 2 && (res[0].Executed != 16 || res[1].Executed != pin.drain) {
					t.Errorf("%s edit: executed %d then %d, want 16 then %d", callee, res[0].Executed, res[1].Executed, pin.drain)
				}
			}
		})
	}

	t.Run("minidb/stop", func(t *testing.T) {
		// What the budget stop itself reports: the read edit's undone
		// re-validations are dropped, and the stats count them among
		// the invalidated entries.
		cfg := configFor(t, "minidb")
		store := filepath.Join(t.TempDir(), "store")
		sessions(t, cfg, store, 0)
		cfg.Profiles = dupReturnProfiles(t, cfg.Profiles, "read")
		stop := sessions(t, cfg, store, 16)[0]
		if stop.Impact == nil || !slices.Equal(stop.Impact.ProfilesChanged, []string{"read"}) || stop.Impact.Revalidated != 40 {
			t.Fatalf("budget-16 read edit: impact %+v, want [read] with 40 revalidated", stop.Impact)
		}
		if st := stop.StoreStats; st == nil || st.Entries != 216 || st.Invalidated != 160 {
			t.Fatalf("budget-16 read edit: store stats %+v, want 216 entries, 160 invalidated", st)
		}
	})

	t.Run("minidb/patch", func(t *testing.T) {
		// A code edit moves the keys of what it can reach, so its
		// pending re-validations are misses to begin with.
		cfg := configFor(t, "minidb")
		base := filepath.Join(t.TempDir(), "base")
		sessions(t, cfg, base, 0)
		cfg.Binary = patched(t, cfg.Binary, "errmsg_load")
		want := filepath.Join(t.TempDir(), "want")
		copyDir(t, base, want)
		sessions(t, cfg, want, 0)
		got := filepath.Join(t.TempDir(), "split")
		copyDir(t, base, got)
		res := sessions(t, cfg, got, 16, 0)
		if res[0].Executed != 16 || res[1].Executed != 56 {
			t.Errorf("errmsg_load patch: executed %d then %d, want 16 then 56", res[0].Executed, res[1].Executed)
		}
		sameStore(t, "errmsg_load patch, budgets 16/0", want, got)
	})

	t.Run("minidb/patch+read", func(t *testing.T) {
		// A code and a profile edit at once: the stop also drops the
		// old build's entries of the edited callee, which the next
		// session would otherwise adopt across the code edit.
		cfg := configFor(t, "minidb")
		base := filepath.Join(t.TempDir(), "base")
		sessions(t, cfg, base, 0)
		cfg.Binary = patched(t, cfg.Binary, "errmsg_load")
		cfg.Profiles = dupReturnProfiles(t, cfg.Profiles, "read")
		want := filepath.Join(t.TempDir(), "want")
		copyDir(t, base, want)
		unbudgeted := sessions(t, cfg, want, 0)[0]
		got := filepath.Join(t.TempDir(), "split")
		copyDir(t, base, got)
		res := sessions(t, cfg, got, 16, 0)
		if res[0].Executed != 16 || res[1].Executed != 203 || unbudgeted.Executed != 219 {
			t.Errorf("errmsg_load patch + read edit: executed %d then %d, unbudgeted %d; want 16 then 203, 219",
				res[0].Executed, res[1].Executed, unbudgeted.Executed)
		}
		if !reflect.DeepEqual(bugSigs(res[1]), bugSigs(unbudgeted)) {
			t.Errorf("errmsg_load patch + read edit: bugs %v, unbudgeted %v", bugSigs(res[1]), bugSigs(unbudgeted))
		}
	})
}

// sessions runs one session of cfg on store per budget (0: unbudgeted)
// and returns their results.
func sessions(t *testing.T, cfg Config, store string, budgets ...int) []*Result {
	t.Helper()
	cfg.Store = store
	var out []*Result
	for _, budget := range budgets {
		res, err := Explore(context.Background(), budget, cfg)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, res.Results[0])
	}
	return out
}

// mostFrequentCallee is the callee with the most generated candidates,
// ties broken by name.
func mostFrequentCallee(cfg Config) string {
	counts := make(map[string]int)
	for _, c := range generate(cfg) {
		counts[c.Callee]++
	}
	best := ""
	for callee, n := range counts {
		if n > counts[best] || n == counts[best] && callee < best {
			best = callee
		}
	}
	return best
}

// sameStore fails unless the stores at want and got hold the same
// files with the same bytes (diff -r).
func sameStore(t *testing.T, what, want, got string) {
	t.Helper()
	w, g := storeTree(t, want), storeTree(t, got)
	for name, data := range w {
		if other, ok := g[name]; !ok {
			t.Errorf("%s: %s missing", what, name)
		} else if other != data {
			t.Errorf("%s: %s differs from %s", what, name, filepath.Join(want, name))
		}
	}
	for name := range g {
		if _, ok := w[name]; !ok {
			t.Errorf("%s: unexpected %s", what, name)
		}
	}
}

// storeTree maps each regular file under root, by relative path, to
// its bytes.
func storeTree(t *testing.T, root string) map[string]string {
	t.Helper()
	files := make(map[string]string)
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		files[rel] = string(data)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}
