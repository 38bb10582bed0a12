package experiments

import (
	"context"
	"fmt"
	"strings"

	"lfi/internal/apps/minidb"
	"lfi/internal/callsite"
	"lfi/internal/controller"
	"lfi/internal/coverage"
	"lfi/internal/explore"
	"lfi/internal/profile"
	"lfi/internal/system"
)

// ExplorerRow compares one system's coverage-guided exploration run
// against the hand-written/stock campaigns of Tables 1-3.
type ExplorerRow struct {
	System     string
	Candidates int
	Mutants    int // window candidates bred by occurrence mutation
	Executed   int
	Batches    int

	ExplorerCrashBugs int // distinct crash signatures the explorer found
	StockCrashBugs    int // distinct crash signatures the Table 1 campaign finds
	SharedCrashBugs   int // found by both

	SuiteRecovery    coverage.Stats // default suite alone
	ExplorerRecovery coverage.Stats // after exploration
}

// ExplorerResult reports the exploration engine next to the paper's
// evaluation: does the closed loop rediscover the Table 1 bugs, and how
// does its recovery coverage compare with the suite baseline of Table 3?
type ExplorerResult struct {
	Rows []ExplorerRow
}

// String renders the comparison.
func (r ExplorerResult) String() string {
	var b strings.Builder
	header(&b, "Explorer: coverage-guided exploration vs the stock campaigns")
	fmt.Fprintf(&b, "%-34s", "")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, " %12s", row.System)
	}
	b.WriteString("\n")
	line := func(label string, val func(ExplorerRow) string) {
		fmt.Fprintf(&b, "%-34s", label)
		for _, row := range r.Rows {
			fmt.Fprintf(&b, " %12s", val(row))
		}
		b.WriteString("\n")
	}
	line("Candidate scenarios generated", func(r ExplorerRow) string { return fmt.Sprint(r.Candidates) })
	line("Window mutants bred", func(r ExplorerRow) string { return fmt.Sprint(r.Mutants) })
	line("Tests executed", func(r ExplorerRow) string { return fmt.Sprint(r.Executed) })
	line("Scheduling batches", func(r ExplorerRow) string { return fmt.Sprint(r.Batches) })
	line("Crash bugs (explorer)", func(r ExplorerRow) string { return fmt.Sprint(r.ExplorerCrashBugs) })
	line("Crash bugs (stock campaign)", func(r ExplorerRow) string { return fmt.Sprint(r.StockCrashBugs) })
	line("Crash bugs found by both", func(r ExplorerRow) string { return fmt.Sprint(r.SharedCrashBugs) })
	line("Recovery coverage, suite alone", func(r ExplorerRow) string {
		return fmt.Sprintf("%.1f%%", r.SuiteRecovery.Percent())
	})
	line("Recovery coverage, explored", func(r ExplorerRow) string {
		return fmt.Sprintf("%.1f%%", r.ExplorerRecovery.Percent())
	})
	return b.String()
}

// crashSignatures runs a stock campaign for one system and returns its
// distinct crash signatures: the analyzer-generated scenario set over
// the registered descriptor's binary and target (the Table 1
// methodology), except minidb, which keeps the paper's seeded random
// injection (the MySQL methodology). For pbft the stock set covers only
// the shutdown-checkpoint crash — the view-change crash needs a fault
// burst no analyzer-generated scenario expresses, which is exactly
// what the explorer's occurrence-window mutation adds on top.
func crashSignatures(sys *system.Descriptor, quick bool, profs []*profile.Profile) (map[string]bool, error) {
	var bugs []controller.Bug
	if sys.Name == minidb.Module {
		dbBugs, _, err := minidbRandomCampaign(quick)
		if err != nil {
			return nil, err
		}
		bugs = dbBugs
	} else {
		bin, _ := sys.Binary()
		a := &callsite.Analyzer{}
		rep := a.Analyze(bin, profs...)
		yes, part, not := rep.ByClass()
		scens := callsite.GenerateScenarios(bin, append(not, part...), profs...)
		scens = append(scens, callsite.GenerateExercise(bin, yes, profs...)...)
		outs, err := controller.CampaignParallel(sys.Target(), scens, campaignWorkers())
		if err != nil {
			return nil, err
		}
		bugs = controller.DistinctBugs(sys.Name, crashesOnly(outs))
	}
	set := make(map[string]bool, len(bugs))
	for _, b := range bugs {
		set[b.Signature] = true
	}
	return set, nil
}

// Explorer runs the full exploration loop on each registered system and
// lines the findings up against the stock campaigns.
func Explorer(quick bool) (ExplorerResult, error) {
	systems := system.All()
	if quick {
		// minidb + minivcs keep the smoke run short.
		systems = nil
		for _, name := range []string{"minidb", "minivcs"} {
			sys, ok := system.Lookup(name)
			if !ok {
				return ExplorerResult{}, fmt.Errorf("explorer: %q not registered", name)
			}
			systems = append(systems, sys)
		}
	}
	var res ExplorerResult
	profs := profiles() // one shared profile set for every system and campaign
	for _, sys := range systems {
		cfg := explore.ConfigForSystem(sys)
		cfg.Profiles = profs
		all, err := explore.Explore(context.Background(), 0, cfg)
		if err != nil {
			return res, err
		}
		er := all.Results[0]
		stock, err := crashSignatures(sys, quick, profs)
		if err != nil {
			return res, err
		}
		row := ExplorerRow{
			System:           sys.Name,
			Candidates:       er.Candidates,
			Mutants:          er.Mutants,
			Executed:         er.Executed,
			Batches:          len(er.Batches),
			StockCrashBugs:   len(stock),
			SuiteRecovery:    er.Baseline,
			ExplorerRecovery: er.Final,
		}
		for _, b := range er.Bugs {
			if !b.IsCrash() {
				continue // graceful recovery, not a crash bug
			}
			row.ExplorerCrashBugs++
			if stock[b.Signature] {
				row.SharedCrashBugs++
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}
