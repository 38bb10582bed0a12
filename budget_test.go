package lfi

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateBudgetCurve = flag.Bool("update-budget-curve", false, "rewrite testdata/budget_curve.golden")

// budgetBackends are the execution mixes a budgeted session must not
// notice: one and two in-process workers, a two-worker subprocess pool
// and an in-process `lfi serve` worker over loopback TCP.
var budgetBackends = []struct {
	name string
	opts func(t *testing.T) []SessionOption
}{
	{"local(1)", func(t *testing.T) []SessionOption { return []SessionOption{WithWorkers(1)} }},
	{"local(2)", func(t *testing.T) []SessionOption { return []SessionOption{WithWorkers(2)} }},
	{"pool(2)", func(t *testing.T) []SessionOption {
		pool, err := NewPoolExecutor(2)
		if err != nil {
			t.Fatal(err)
		}
		return []SessionOption{WithExecutors(pool...)}
	}},
	{"remote", func(t *testing.T) []SessionOption {
		return []SessionOption{WithExecutor(startSessionLoopback(t, 2))}
	}},
}

// budgetLine renders one budgeted session over every registered
// system: per system, tests executed and stock bugs rediscovered, then
// the stock-bug total.
func budgetLine(budget int, res *ExploreAllResult) (line string, found, stock int) {
	var b strings.Builder
	fmt.Fprintf(&b, "budget %d:", budget)
	for _, r := range res.Results {
		sys, _ := LookupSystem(r.System)
		n := 0
		for _, sb := range sys.StockBugs {
			for _, bug := range r.Bugs {
				if bug.IsCrash() && strings.Contains(bug.Signature, sb.Match) {
					n++
					break
				}
			}
		}
		found += n
		stock += len(sys.StockBugs)
		fmt.Fprintf(&b, " %s %d/%d", r.System, r.Executed, n)
	}
	fmt.Fprintf(&b, ", stock bugs %d/%d\n", found, stock)
	return b.String(), found, stock
}

// TestBudgetCurve pins how a budgeted cross-system session splits its
// budget and how many stock bugs that buys. The systems are scored from
// their own outcomes alone, so the split must not depend on the host,
// the backend mix or the worker count: every backend must reproduce the
// committed golden exactly. Regenerate with -update-budget-curve only
// for a deliberate scheduling change.
func TestBudgetCurve(t *testing.T) {
	if testing.Short() {
		t.Skip("explores every registered system twelve times")
	}
	var want string
	for _, be := range budgetBackends {
		var got strings.Builder
		for _, budget := range []int{300, 1000, 2000} {
			opts := append(be.opts(t), WithBudget(budget), WithSeed(1))
			res, err := mustSession(t, opts...).ExploreAll(context.Background())
			if err != nil {
				t.Fatalf("%s, budget %d: %v", be.name, budget, err)
			}
			if res.Executed != budget {
				t.Fatalf("%s: budget %d executed %d tests", be.name, budget, res.Executed)
			}
			line, found, stock := budgetLine(budget, res)
			if budget == 300 && found < 13 {
				t.Errorf("%s: budget 300 found %d of %d stock bugs, floor 13", be.name, found, stock)
			}
			got.WriteString(line)
		}
		if want == "" {
			want = got.String()
		} else if got.String() != want {
			t.Fatalf("%s split the budget differently from %s:\n%s\nvs\n%s", be.name, budgetBackends[0].name, got.String(), want)
		}
	}

	path := filepath.Join("testdata", "budget_curve.golden")
	if *updateBudgetCurve {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want != string(golden) {
		t.Fatalf("budget curve moved:\ngot:\n%swant:\n%s", want, golden)
	}
}
