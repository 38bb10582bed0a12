package lfi

import (
	"context"
	"strings"
	"testing"

	"lfi/internal/callgraph"
	"lfi/internal/controller"
)

// lintGoldens pins the interprocedural site-class tally of every
// built-in system (`lfi lint`): the paper's windowed classes refined by
// the whole-program analysis. Swallowed counts the planted
// error-dropping sites — each is a dead recovery block; checked-in-
// caller is 0 because the stock applications make no internal calls
// (the demotion is pinned on synthetic binaries in internal/callgraph).
var lintGoldens = map[string]callgraph.Counts{
	"minidb":  {Checked: 15, Partial: 1, Unchecked: 0, Swallowed: 0, CheckedInCaller: 0},
	"minidns": {Checked: 23, Partial: 1, Unchecked: 1, Swallowed: 1, CheckedInCaller: 0},
	"minivcs": {Checked: 18, Partial: 1, Unchecked: 0, Swallowed: 5, CheckedInCaller: 0},
	"miniweb": {Checked: 7, Partial: 0, Unchecked: 0, Swallowed: 1, CheckedInCaller: 0},
	"pbft":    {Checked: 3, Partial: 0, Unchecked: 0, Swallowed: 3, CheckedInCaller: 0},
	"raft":    {Checked: 3, Partial: 0, Unchecked: 0, Swallowed: 4, CheckedInCaller: 0},
}

// universeGoldens pins every built-in system's declared coverage
// universe (Descriptor.Blocks): blocks, recovery blocks, and LOC — the
// denominators of the explorer's and Table 3's coverage lines.
var universeGoldens = map[string]struct{ Blocks, Recovery, LOC int }{
	"minidb":  {22, 16, 288},
	"minidns": {38, 26, 9804},
	"minivcs": {35, 24, 9657},
	"miniweb": {8, 5, 147},
	"pbft":    {11, 3, 164},
	"raft":    {11, 4, 115},
}

// runsToAllBugsCeiling pins the explorer's executed outcomes until the
// last stock Table-1 bug surfaces (batch granularity), with the static
// prior active — measured before the prior landed and required not to
// regress. Exploration is deterministic under the session seed, so
// these are exact.
var runsToAllBugsCeiling = map[string]int{
	"minidb":  48,
	"minidns": 64,
	"minivcs": 16,
	"miniweb": 16,
	"pbft":    144,
	"raft":    544,
}

// TestSystemRegistryConformance is the descriptor contract, enforced
// for every registered system in one table-driven sweep: the binary
// assembles with a site map, the libraries profile cleanly, the target
// runs the default suite, the declared block universe matches its
// golden and a coverage run records hits over it, and — the acceptance
// bar — Session.Explore
// rediscovers every stock Table-1 crash bug with no hand-written
// scenario, window-only bugs strictly through bred window mutants
// (stack-window-only bugs strictly through bred call-stack windows).
// This subsumes the per-system stock-bug tests the explorer used to
// carry: a new system registers a descriptor in its own package and is
// held to the same bar with no new test code.
func TestSystemRegistryConformance(t *testing.T) {
	systems := Systems()
	for _, want := range []string{"minidb", "minidns", "minivcs", "miniweb", "pbft", "raft"} {
		if _, ok := LookupSystem(want); !ok {
			t.Fatalf("built-in system %q not registered", want)
		}
	}
	if len(systems) < 6 {
		t.Fatalf("registry lists %d systems, want >= 6", len(systems))
	}

	for _, sys := range systems {
		sys := sys
		t.Run(sys.Name, func(t *testing.T) {
			// Descriptor shape.
			bin, offs := sys.Binary()
			if bin == nil || len(bin.Code) == 0 {
				t.Fatal("Binary() returned no image")
			}
			if len(offs) == 0 {
				t.Fatal("Binary() returned no site-label offsets")
			}
			if sys.Workload == "" {
				t.Error("descriptor names no workload suite")
			}
			if len(sys.StockBugs) == 0 {
				t.Fatal("descriptor advertises no stock bugs")
			}

			// Libraries profile cleanly.
			profs := sys.Profiles()
			if len(profs) == 0 {
				t.Fatal("Profiles() returned nothing")
			}
			for _, p := range profs {
				if p == nil || len(p.FuncNames()) == 0 {
					t.Fatalf("library profile empty: %+v", p)
				}
			}

			// The target runs the default suite, without and with
			// coverage; a coverage run returns its hits over the
			// system's declared universe, which matches its golden.
			tgt := sys.Target()
			if out, err := controller.RunOne(tgt, nil); err != nil || out.Failed() || out.CovU != nil {
				t.Fatalf("default suite failed under Target(): err=%v out=%v (coverage %v)", err, out, out.CovU != nil)
			}
			tgt.Coverage = true
			out, err := controller.RunOne(tgt, nil)
			if err != nil || out.Failed() {
				t.Fatalf("default suite failed with coverage: err=%v out=%v", err, out)
			}
			if out.CovU != sys.Blocks {
				t.Fatal("coverage run is not over the descriptor's Blocks")
			}
			if sys.Blocks.Total(out.Cov).BlocksCovered == 0 {
				t.Fatal("coverage run recorded no hits from the suite")
			}
			tot, rec := sys.Blocks.Total(nil), sys.Blocks.Recovery(nil)
			if want := universeGoldens[sys.Name]; tot.Blocks != want.Blocks || rec.Blocks != want.Recovery || tot.LOC != want.LOC {
				t.Errorf("universe: %d blocks, %d recovery, %d LOC; want %+v", tot.Blocks, rec.Blocks, tot.LOC, want)
			}

			// The static analysis contract: the interprocedural lint
			// reproduces the pinned site-class tally, and every
			// swallowed site names a dead recovery block.
			sess := mustSession(t, WithWorkers(4))
			if want, pinned := lintGoldens[sys.Name]; pinned {
				rep, err := sess.Lint(sys)
				if err != nil {
					t.Fatal(err)
				}
				if rep.Counts != want {
					t.Errorf("lint counts %+v, want %+v", rep.Counts, want)
				}
				if len(rep.DeadBlocks) != rep.Counts.Swallowed {
					t.Errorf("dead recovery blocks %v vs %d swallowed sites",
						rep.DeadBlocks, rep.Counts.Swallowed)
				}
			}

			// The acceptance bar: exploration through the Session API
			// rediscovers every advertised stock bug.
			res, err := sess.Explore(context.Background(), sys)
			if err != nil {
				t.Fatal(err)
			}
			remaining := make(map[string]bool, len(sys.StockBugs))
			for _, sb := range sys.StockBugs {
				remaining[sb.Match] = true
			}
			runsToAll := 0
			for _, b := range res.Batches {
				runsToAll += b.Runs
				for _, sig := range b.NewBugs {
					for m := range remaining {
						if strings.Contains(sig, m) {
							delete(remaining, m)
						}
					}
				}
				if len(remaining) == 0 {
					break
				}
			}
			if ceil, pinned := runsToAllBugsCeiling[sys.Name]; pinned && len(remaining) == 0 && runsToAll > ceil {
				t.Errorf("executed %d outcomes before the last stock bug, ceiling %d — the static prior regressed the schedule", runsToAll, ceil)
			}
			for _, sb := range sys.StockBugs {
				found := false
				for _, b := range res.Bugs {
					if !b.IsCrash() || !strings.Contains(b.Signature, sb.Match) {
						continue
					}
					found = true
					if sb.WindowOnly {
						for _, name := range b.Scenarios {
							if !strings.Contains(name, "explore-win-") && !strings.Contains(name, "explore-swin-") {
								t.Errorf("window-only bug %q found by non-window scenario %q", sb.Match, name)
							}
						}
					}
					if sb.StackWindowOnly {
						for _, name := range b.Scenarios {
							if !strings.Contains(name, "explore-swin-") {
								t.Errorf("stack-window-only bug %q found by non-stack-window scenario %q", sb.Match, name)
							}
						}
					}
				}
				if !found {
					t.Errorf("stock bug not rediscovered: %q (%s)\n%s", sb.Match, sb.Note, res)
				}
			}
		})
	}
}
