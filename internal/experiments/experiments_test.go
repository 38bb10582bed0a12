package experiments

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// These tests pin the SHAPE of each reproduced result — who wins, by
// roughly what factor — with reduced run counts so the suite stays
// fast. The full-size numbers live in EXPERIMENTS.md and come from
// cmd/lfi-experiments / the benchmarks.

func TestTable1FindsElevenBugs(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign experiment")
	}
	res, err := Table1(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bugs) != 11 {
		t.Fatalf("found %d distinct bugs, want 11:\n%s", len(res.Bugs), res)
	}
	want := map[string]int{"minivcs": 5, "minidns": 2, "minidb": 2, "pbft": 2}
	for sys, n := range want {
		if res.PerSys[sys] != n {
			t.Errorf("%s: %d bugs, want %d\n%s", sys, res.PerSys[sys], n, res)
		}
	}
	if !strings.Contains(res.String(), "11 distinct bugs") {
		t.Error("rendering wrong")
	}
}

func TestTable2PrecisionOrdering(t *testing.T) {
	res, err := Table2(40)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's ordering: random < within-file < close-after-unlock,
	// with the last at 100%.
	if !(res.Random < res.InFile && res.InFile < res.AfterLock) {
		t.Fatalf("precision ordering violated: %+v", res)
	}
	if res.AfterLock != 1.0 {
		t.Fatalf("close-after-unlock precision %.2f, want 1.0", res.AfterLock)
	}
	if res.Random == 0 {
		t.Fatal("random never hit the bug (calibration broken)")
	}
}

func TestTable3CoverageShape(t *testing.T) {
	res, err := Table3()
	if err != nil {
		t.Fatal(err)
	}
	// The exact rows: the baseline covers almost no recovery code, the
	// campaign adds tens of percent of it (paper: 35%-60%), and total
	// coverage moves by a point or so.
	want := []struct {
		system             string
		gain               string
		loc                int
		totalBase, totalLF string
	}{
		{"minivcs", "56%", 125, "78.7%", "80.0%"},
		{"minidns", "67%", 118, "61.3%", "62.5%"},
	}
	if len(res.Rows) != len(want) {
		t.Fatalf("%d rows", len(res.Rows))
	}
	for i, row := range res.Rows {
		w := want[i]
		got := fmt.Sprintf("%s %.0f%% %d %.1f%% %.1f%%", row.System, row.AdditionalRecoveryPct(), row.AdditionalLOC(),
			row.TotalBaseline.Percent(), row.TotalWithLFI.Percent())
		if exp := fmt.Sprintf("%s %s %d %s %s", w.system, w.gain, w.loc, w.totalBase, w.totalLF); got != exp {
			t.Errorf("row %d: %s, want %s", i, got, exp)
		}
		if row.Scenarios == 0 {
			t.Errorf("%s: no scenarios generated", row.System)
		}
	}
}

func TestTable4AccuracyShape(t *testing.T) {
	res := Table4()
	if len(res.Rows) < 7 {
		t.Fatalf("only %d rows:\n%s", len(res.Rows), res)
	}
	fps := 0
	for _, row := range res.Rows {
		if row.FN != 0 {
			t.Errorf("%s/%s: false negatives", row.System, row.Func)
		}
		fps += row.FP
		if row.System == "minidns" && row.Func == "open" {
			if row.FP != 1 {
				t.Errorf("minidns open: FP=%d, want the single known false positive", row.FP)
			}
			if v := row.Value(); v < 0.8 || v > 0.9 {
				t.Errorf("minidns open accuracy %.2f, want ~0.83", v)
			}
		} else if row.Value() != 1.0 {
			t.Errorf("%s/%s: accuracy %.2f, want 100%%", row.System, row.Func, row.Value())
		}
	}
	if fps != 1 {
		t.Errorf("total false positives %d, want exactly 1", fps)
	}
}

func TestTable5OverheadSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	res, err := Table5(300)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's claim is about trigger STACKING being negligible:
	// going from 1 to 5 triggers must not meaningfully slow the
	// workload (short-circuiting keeps evaluation O(1) here). A noisy
	// CI box gets a generous 40% allowance on this millisecond-scale
	// measurement.
	if res.StackingOverheadPct() > 40 {
		t.Errorf("trigger-stacking overhead %.1f%% too large:\n%s", res.StackingOverheadPct(), res)
	}
	if res.Triggerings == 0 {
		t.Fatal("no trigger evaluations recorded")
	}
}

func TestTable6OverheadSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	res, err := Table6(150 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxOverheadPct() > 40 {
		t.Errorf("overhead %.1f%% too large:\n%s", res.MaxOverheadPct(), res)
	}
	if res.ReadOnly[0] <= res.ReadWr[0] {
		t.Error("read-only throughput should exceed read-write")
	}
}

func TestFigure3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("long-running distributed experiment")
	}
	res, err := Figure3(6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 6 {
		t.Fatalf("%d points", len(res.Points))
	}
	if !res.Monotone(0.5) {
		t.Errorf("degradation not monotone:\n%s", res)
	}
	last := res.Points[len(res.Points)-1]
	if last.Slowdown < 1.5 {
		t.Errorf("99%% loss barely slowed PBFT (%.2fx):\n%s", last.Slowdown, res)
	}
}

func TestDoSShape(t *testing.T) {
	if testing.Short() {
		t.Skip("long-running distributed experiment")
	}
	res, err := DoS(20)
	if err != nil {
		t.Fatal(err)
	}
	// Paper shape: silencing one replica does NOT hurt (it even helps
	// slightly); the rotation attack is strictly worse.
	if res.SilenceDelta < -0.25 {
		t.Errorf("silencing hurt throughput by %.0f%%:\n%s", -100*res.SilenceDelta, res)
	}
	if res.RotationDrop < 1.3 {
		t.Errorf("rotation attack drop only %.2fx:\n%s", res.RotationDrop, res)
	}
	if res.RotationOps >= res.SilencedOps {
		t.Errorf("rotation should be the more effective attack:\n%s", res)
	}
}

func TestEfficiencyFast(t *testing.T) {
	res := Efficiency()
	if len(res.Rows) != 3 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Sites == 0 {
			t.Errorf("%s: no sites analyzed", row.System)
		}
		if row.Elapsed > 5*time.Second {
			t.Errorf("%s: analysis took %v (paper: seconds at most)", row.System, row.Elapsed)
		}
	}
}

// TestViewChangeBugHuntReproduces pins the attempt that reproduces the
// view-change crash: the hunt's clusters run on virtual time, so it is a
// function of the attempts' seeds.
func TestViewChangeBugHuntReproduces(t *testing.T) {
	if testing.Short() {
		t.Skip("long-running distributed experiment")
	}
	crash, attempts, err := ViewChangeBugHunt()
	if err != nil {
		t.Fatal(err)
	}
	if crash == nil {
		t.Fatalf("view-change bug not reproduced in %d attempts", attempts)
	}
	if !strings.Contains(crash.Reason, "view change") {
		t.Fatalf("wrong crash: %v", crash)
	}
	if attempts != 8 {
		t.Fatalf("reproduced at attempt %d, want 8", attempts)
	}
}

// TestPBFTStudiesDeterministic runs the pbft studies twice in one
// process: on virtual time their output is a function of the seeds, so
// both runs print the same bytes whatever the load on the host.
func TestPBFTStudiesDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("long-running distributed experiment")
	}
	run := func() string {
		f3, err := Figure3(6, 1)
		if err != nil {
			t.Fatal(err)
		}
		dos, err := DoS(20)
		if err != nil {
			t.Fatal(err)
		}
		crash, attempts, err := ViewChangeBugHunt()
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%s%s\nview-change hunt: attempt %d: %v\n", f3, dos, attempts, crash)
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("two runs differ:\n%s\n---\n%s", a, b)
	}
}

func TestExplorerMatchesStockCampaigns(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign experiment")
	}
	res, err := Explorer(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("%d rows, want 2 in quick mode", len(res.Rows))
	}
	for _, row := range res.Rows {
		// The closed loop must rediscover every crash bug the stock
		// Table 1 campaigns find, without a hand-written scenario.
		if row.SharedCrashBugs != row.StockCrashBugs {
			t.Errorf("%s: explorer shares %d of %d stock crash bugs:\n%s",
				row.System, row.SharedCrashBugs, row.StockCrashBugs, res)
		}
		if row.ExplorerRecovery.LOCCovered <= row.SuiteRecovery.LOCCovered {
			t.Errorf("%s: exploration added no recovery coverage:\n%s", row.System, res)
		}
	}
}
