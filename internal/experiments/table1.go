package experiments

import (
	"fmt"
	"strings"
	"time"

	"lfi/internal/apps/minidb"
	"lfi/internal/apps/minidns"
	"lfi/internal/apps/minivcs"
	"lfi/internal/callsite"
	"lfi/internal/controller"
	"lfi/internal/core"
	"lfi/internal/libsim"
	"lfi/internal/pbft"
	"lfi/internal/scenario"
)

// Table1Result reproduces Table 1: the bugs LFI finds automatically.
type Table1Result struct {
	Bugs     []controller.Bug
	Tests    int // total test runs executed
	PerSys   map[string]int
	VCDetail string // how the PBFT view-change bug was reproduced
}

// String renders the table.
func (r Table1Result) String() string {
	var b strings.Builder
	header(&b, fmt.Sprintf("Table 1: %d distinct bugs found automatically (%d test runs)", len(r.Bugs), r.Tests))
	for _, bug := range r.Bugs {
		fmt.Fprintf(&b, "%-8s %s\n", bug.System, bug.Signature)
	}
	if r.VCDetail != "" {
		fmt.Fprintf(&b, "(PBFT view-change: %s)\n", r.VCDetail)
	}
	return b.String()
}

// Table1 runs the §7.1 bug-finding campaigns:
//
//   - minivcs and minidns: the call-site analyzer's generated scenarios
//     (C_not, then C_part, then recovery-exercising scenarios for
//     checked sites), applied with no modifications;
//   - minidb: 1,000-style random injection (the paper's MySQL
//     methodology), here seeded and sized down;
//   - PBFT: the analyzer scenarios against the replica binary, plus the
//     distributed sendto/recvfrom rotation that exposes the release-
//     build view-change bug.
func Table1(quick bool) (Table1Result, error) {
	res := Table1Result{PerSys: map[string]int{}}
	profs := profiles()

	type analyzed struct {
		name   string
		bin    *binaryOf
		target func() controller.Target
	}
	targets := []analyzed{
		{minivcs.Module, firstBin(minivcs.Binary()), minivcs.Target},
		{minidns.Module, firstBin(minidns.Binary()), minidns.Target},
	}
	for _, tgt := range targets {
		a := &callsite.Analyzer{}
		rep := a.Analyze(tgt.bin, profs...)
		yes, part, not := rep.ByClass()
		scens := callsite.GenerateScenarios(tgt.bin, append(not, part...), profs...)
		scens = append(scens, callsite.GenerateExercise(tgt.bin, yes, profs...)...)
		outs, err := controller.CampaignParallel(tgt.target(), scens, campaignWorkers())
		if err != nil {
			return res, err
		}
		res.Tests += len(outs)
		bugs := controller.DistinctBugs(tgt.name, crashesOnly(outs))
		res.Bugs = append(res.Bugs, bugs...)
		res.PerSys[tgt.name] = len(bugs)
	}

	// minidb: random injection campaign.
	dbBugs, dbTests, err := minidbRandomCampaign(quick)
	if err != nil {
		return res, err
	}
	res.Tests += dbTests
	res.Bugs = append(res.Bugs, dbBugs...)
	res.PerSys[minidb.Module] = len(dbBugs)

	// PBFT: analyzer scenario for the shutdown fopen bug.
	pbftBugs, pbftTests, vcDetail, err := pbftCampaign()
	if err != nil {
		return res, err
	}
	res.Tests += pbftTests
	res.Bugs = append(res.Bugs, pbftBugs...)
	res.PerSys["pbft"] = len(pbftBugs)
	res.VCDetail = vcDetail
	return res, nil
}

func firstBin(b *binaryOf, _ map[string]uint64) *binaryOf { return b }

// crashesOnly keeps abnormal terminations: a workload error means the
// program recovered gracefully from the injected fault, which Table 1
// does not count as a bug.
func crashesOnly(outs []controller.Outcome) []controller.Outcome {
	var kept []controller.Outcome
	for _, o := range outs {
		if o.Crash != nil {
			kept = append(kept, o)
		}
	}
	return kept
}

// minidbRandomCampaign mirrors §7.1's MySQL methodology: random
// injection tests targeting different libc functions, then core-dump
// (crash signature) analysis.
func minidbRandomCampaign(quick bool) ([]controller.Bug, int, error) {
	funcs := []struct {
		name   string
		retval int64
		errno  string
	}{
		{"close", -1, "EIO"},
		{"read", -1, "EIO"},
		{"open", -1, "EACCES"},
		{"write", -1, "ENOSPC"},
		{"malloc", 0, "ENOMEM"},
		{"fcntl", -1, "EBADF"},
	}
	runs := 40
	if quick {
		runs = 12
	}
	scens := make([]*scenario.Scenario, 0, len(funcs))
	for _, fn := range funcs {
		doc := fmt.Sprintf(`<scenario name="random-%s">
		  <trigger id="rnd" class="RandomTrigger"><args><probability>0.1</probability></args></trigger>
		  <function name="%s" return="%d" errno="%s"><reftrigger ref="rnd" /></function>
		</scenario>`, fn.name, fn.name, fn.retval, fn.errno)
		s, err := scenario.ParseString(doc)
		if err != nil {
			return nil, 0, err
		}
		scens = append(scens, s)
	}
	// One job per (scenario, seed) pair, spread over the worker pool;
	// job order (and thus outcome order) matches the old nested loop.
	tgt := minidb.Target()
	outs, err := controller.RunN(campaignWorkers(), len(scens)*runs, func(i int) (controller.Outcome, error) {
		s, seed := scens[i/runs], i%runs
		return controller.RunOne(tgt, s, core.WithSeed(int64(seed)))
	})
	if err != nil {
		return nil, 0, err
	}
	return controller.DistinctBugs(minidb.Module, crashesOnly(outs)), len(outs), nil
}

// pbftCampaign finds the two PBFT bugs: the shutdown-checkpoint crash
// via the analyzer-generated fopen scenario, and the view-change crash
// via distributed loss with consecutive per-replica fault bursts.
func pbftCampaign() ([]controller.Bug, int, string, error) {
	var outs []controller.Outcome
	tests := 0

	// (a) Analyzer scenarios against the replica binary.
	bin, _ := pbft.Binary()
	a := &callsite.Analyzer{}
	rep := a.Analyze(bin, profiles()...)
	_, part, not := rep.ByClass()
	scens := callsite.GenerateScenarios(bin, append(not, part...), profiles()...)
	for _, s := range scens {
		// Run only fopen/fwrite scenarios through the full cluster
		// (sendto/recvfrom singletons are exercised by (b)).
		fn := s.Functions[0].Name
		if fn != "fopen" && fn != "fwrite" {
			continue
		}
		cl := pbft.NewCluster(1, pbft.BuildDebug)
		if err := cl.InstallScenario(s); err != nil {
			return nil, 0, "", err
		}
		if err := cl.Start(); err != nil {
			return nil, 0, "", err
		}
		cl.RunWorkload(2, time.Second)
		cl.Stop()
		tests++
		out := controller.Outcome{Scenario: s, Crash: cl.FirstCrash()}
		if len(cl.Runtimes()) > 0 {
			for _, rt := range cl.Runtimes() {
				if rt.Log().Len() > 0 {
					out.Log = rt.Log()
				}
			}
		}
		outs = append(outs, out)
	}

	// (b) The distributed rotation experiment (release build).
	crash, attempts, err := ViewChangeBugHunt()
	if err != nil {
		return nil, 0, "", err
	}
	detail := fmt.Sprintf("not reproduced in %d attempts", attempts)
	if crash != nil {
		outs = append(outs, controller.Outcome{
			Scenario: &scenario.Scenario{Name: "pbft-rotation-loss"},
			Crash:    crash,
		})
		detail = fmt.Sprintf("reproduced after %d attempt(s): %s", attempts, crash.Reason)
	}
	tests += attempts
	return controller.DistinctBugs("pbft", crashesOnly(outs)), tests, detail, nil
}

// ViewChangeBugHunt drives the release build with bursts of consecutive
// sendto faults rotating across replicas until the view-change crash
// manifests. Returns the crash (nil if not reproduced) and the number
// of cluster runs used. The clusters run on virtual time, so both are a
// function of the attempts' seeds.
func ViewChangeBugHunt() (*libsim.Crash, int, error) {
	const maxAttempts = 10
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		// p=0.9 per sendto call: with the release build's bounded
		// resend (9 calls per message) the per-message loss is
		// ~0.9^9 ≈ 39%, enough for a replica to permanently miss a
		// pre-prepare while the commit quorum still reaches it.
		doc := fmt.Sprintf(`<scenario name="rotation-%d">
		  <trigger id="p" class="RandomTrigger"><args><probability>0.9</probability></args></trigger>
		  <function name="sendto" return="-1" errno="EHOSTUNREACH"><reftrigger ref="p" /></function>
		</scenario>`, attempt)
		s, err := scenario.ParseString(doc)
		if err != nil {
			return nil, attempt, err
		}
		cl := pbft.NewCluster(1, pbft.BuildRelease)
		if err := cl.InstallScenario(s, core.WithSeed(int64(attempt*7))); err != nil {
			return nil, attempt, err
		}
		// The client's datagrams are part of the lossy network too:
		// dropping a REQUEST towards one replica is what leaves that
		// replica without the content behind a commit quorum.
		clientLoss, err := scenario.ParseString(`<scenario name="client-loss">
		  <trigger id="p" class="RandomTrigger"><args><probability>0.5</probability></args></trigger>
		  <function name="sendto" return="-1" errno="EHOSTUNREACH"><reftrigger ref="p" /></function>
		</scenario>`)
		if err != nil {
			return nil, attempt, err
		}
		crt, err := core.New(cl.Client.C, clientLoss, core.WithSeed(int64(attempt*13)))
		if err != nil {
			return nil, attempt, err
		}
		crt.Install()
		if err := cl.Start(); err != nil {
			return nil, attempt, err
		}
		cl.RunWorkload(8, 400*time.Millisecond)
		cl.Idle(300 * time.Millisecond) // let view changes play out
		crt.Uninstall()
		var crash *libsim.Crash
		for _, c := range cl.Crashes() {
			if c != nil && strings.Contains(c.Reason, "view change") {
				crash = c
			}
		}
		cl.Stop()
		if crash != nil {
			return crash, attempt, nil
		}
	}
	return nil, maxAttempts, nil
}
