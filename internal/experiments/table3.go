package experiments

import (
	"fmt"
	"strings"

	"lfi/internal/apps/minidns"
	"lfi/internal/apps/minivcs"
	"lfi/internal/callsite"
	"lfi/internal/controller"
	"lfi/internal/coverage"
)

// Table3Row is one system's coverage improvement.
type Table3Row struct {
	System           string
	RecoveryBaseline coverage.Stats // recovery coverage, default suite alone
	RecoveryWithLFI  coverage.Stats // recovery coverage, suite + LFI campaign
	TotalBaseline    coverage.Stats
	TotalWithLFI     coverage.Stats
	Scenarios        int
}

// AdditionalRecoveryPct is the paper's headline number: the fraction of
// all recovery code newly covered thanks to LFI.
func (r Table3Row) AdditionalRecoveryPct() float64 {
	if r.RecoveryWithLFI.LOC == 0 {
		return 0
	}
	return 100 * float64(r.RecoveryWithLFI.LOCCovered-r.RecoveryBaseline.LOCCovered) /
		float64(r.RecoveryWithLFI.LOC)
}

// AdditionalLOC is the absolute count of newly covered lines.
func (r Table3Row) AdditionalLOC() int {
	return r.TotalWithLFI.LOCCovered - r.TotalBaseline.LOCCovered
}

// Table3Result reproduces Table 3: automated coverage improvement.
type Table3Result struct {
	Rows []Table3Row
}

// String renders the table.
func (r Table3Result) String() string {
	var b strings.Builder
	header(&b, "Table 3: automated improvement in recovery-code coverage")
	fmt.Fprintf(&b, "%-34s", "")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, " %12s", row.System)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "%-34s", "Additional recovery code covered")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, " %11.0f%%", row.AdditionalRecoveryPct())
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "%-34s", "Additional LOC covered by LFI")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, " %12d", row.AdditionalLOC())
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "%-34s", "Total coverage without LFI")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, " %11.1f%%", row.TotalBaseline.Percent())
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "%-34s", "Total coverage with LFI")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, " %11.1f%%", row.TotalWithLFI.Percent())
	}
	b.WriteString("\n")
	return b.String()
}

// Table3 runs the §7.1 coverage experiment on minivcs (Git) and minidns
// (BIND): measure recovery coverage of the default suite alone, then
// re-run the suite once per analyzer-generated scenario (C_not, C_part,
// and recovery-exercising C_yes scenarios — the paper's trimmed list of
// known-fallible calls) and measure again.
func Table3() (Table3Result, error) {
	profs := profiles()
	systems := []struct {
		name   string
		bin    *binaryOf
		target controller.Target
	}{
		{minivcs.Module, firstBin(minivcs.Binary()), minivcs.Target()},
		{minidns.Module, firstBin(minidns.Binary()), minidns.Target()},
	}
	var res Table3Result
	for _, sys := range systems {
		// Baseline: the default suite, no LFI.
		sys.target.Coverage = true
		base, err := controller.RunOne(sys.target, nil)
		if err != nil {
			return res, err
		}
		idx := base.CovU
		row := Table3Row{
			System:           sys.name,
			RecoveryBaseline: idx.Recovery(base.Cov),
			TotalBaseline:    idx.Total(base.Cov),
		}

		// Campaign: default suite once per generated scenario, with
		// the runs' coverage unioned (lcov-style) onto the baseline.
		a := &callsite.Analyzer{}
		rep := a.Analyze(sys.bin, profs...)
		yes, part, not := rep.ByClass()
		scens := callsite.GenerateScenarios(sys.bin, append(not, part...), profs...)
		scens = append(scens, callsite.GenerateExercise(sys.bin, yes, profs...)...)
		row.Scenarios = len(scens)
		outs, err := controller.CampaignParallel(sys.target, scens, campaignWorkers())
		if err != nil {
			return res, err
		}
		covered := base.Cov.Clone()
		for _, o := range outs {
			covered.Or(o.Cov)
		}
		row.RecoveryWithLFI = idx.Recovery(covered)
		row.TotalWithLFI = idx.Total(covered)
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}
