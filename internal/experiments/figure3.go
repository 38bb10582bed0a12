package experiments

import (
	"fmt"
	"strings"
	"time"

	"lfi/internal/core"
	"lfi/internal/distsim"
	"lfi/internal/pbft"
	"lfi/internal/scenario"
)

// Figure3Point is one x/y pair of Figure 3.
type Figure3Point struct {
	LossProb  float64
	Slowdown  float64 // per-op latency relative to the 0-loss baseline
	Completed int
	PerOpMean time.Duration // virtual time, think time included
}

// Figure3Result reproduces Figure 3: PBFT throughput slowdown under
// progressively worsening network conditions.
type Figure3Result struct {
	Trials int
	Ops    int
	Points []Figure3Point
}

// String renders the series (the figure's data points).
func (r Figure3Result) String() string {
	var b strings.Builder
	header(&b, fmt.Sprintf("Figure 3: PBFT slowdown vs packet-loss probability (%d ops, avg of %d trials)", r.Ops, r.Trials))
	fmt.Fprintf(&b, "%-12s %-12s %-10s %s\n", "loss prob", "slowdown", "completed", "per-op")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-12.2f %-12.2f %-10d %v\n", p.LossProb, p.Slowdown, p.Completed, p.PerOpMean.Round(time.Millisecond))
	}
	return b.String()
}

// Monotone reports whether slowdown is non-decreasing in loss (allowing
// small jitter eps), the figure's qualitative shape.
func (r Figure3Result) Monotone(eps float64) bool {
	for i := 1; i < len(r.Points); i++ {
		if r.Points[i].Slowdown+eps < r.Points[i-1].Slowdown {
			return false
		}
	}
	return true
}

// figure3Probs are the x values of Figure 3.
var figure3Probs = []float64{0, 0.1, 0.8, 0.9, 0.95, 0.99}

// lossScenario builds the random sendto/recvfrom degradation of §7.3.
// The distributed trigger consults the central loss policy, composed
// after a node-local guard is unnecessary here because every call is a
// communication call.
func lossScenario(p float64) (*scenario.Scenario, error) {
	doc := fmt.Sprintf(`<scenario name="net-loss-%v">
	  <trigger id="loss" class="DistributedTrigger" />
	  <function name="sendto" return="-1" errno="EAGAIN"><reftrigger ref="loss" /></function>
	  <function name="recvfrom" return="-1" errno="EINTR"><reftrigger ref="loss" /></function>
	</scenario>`, p)
	return scenario.ParseString(doc)
}

// Figure3 measures PBFT end-to-end performance at each loss probability,
// averaged over trials (7 by default, as in the paper). It uses the
// patched build so the performance study is not cut short by the
// release build's seeded crash, and client think time paces the
// workload the way simple_client does. The cluster runs on virtual
// time, so every latency is a function of the loss seeds.
func Figure3(ops, trials int) (Figure3Result, error) {
	if ops <= 0 {
		ops = 15
	}
	if trials <= 0 {
		trials = 7
	}
	// Client think time paces the workload (the paper's client is
	// similarly not issuing back-to-back requests), so the slowdown is
	// protocol latency against pacing. The paper's 99%-loss point is
	// ~4x; measured here it is ~900x, because no operation completes
	// within its cap at 99% loss (EXPERIMENTS.md).
	const think = 50 * time.Millisecond
	res := Figure3Result{Trials: trials, Ops: ops}
	var baseline time.Duration
	for _, p := range figure3Probs {
		var total time.Duration
		completedSum := 0
		for trial := 0; trial < trials; trial++ {
			s, err := lossScenario(p)
			if err != nil {
				return res, err
			}
			ctrl := distsim.NewController(distsim.NewLossPolicy(p, int64(1000*p)+int64(trial)))
			cl := pbft.NewCluster(1, pbft.BuildPatched)
			if err := cl.InstallScenario(s, core.WithDecider(ctrl)); err != nil {
				return res, err
			}
			if err := cl.Start(); err != nil {
				return res, err
			}
			completed, perOp := cl.RunPaced(ops, think, 3*time.Second)
			cl.Stop()
			completedSum += completed
			total += perOp
		}
		mean := total / time.Duration(trials)
		point := Figure3Point{
			LossProb:  p,
			Completed: completedSum / trials,
			PerOpMean: mean,
		}
		if p == 0 {
			baseline = mean
			point.Slowdown = 1
		} else if baseline > 0 {
			point.Slowdown = float64(mean) / float64(baseline)
		}
		res.Points = append(res.Points, point)
	}
	return res, nil
}

// DoSResult reproduces the §7.3 denial-of-service study.
type DoSResult struct {
	BaselineOps  float64 // ops/sec, LFI intercepting but passing through
	SilencedOps  float64 // one replica rendered inactive
	RotationOps  float64 // 500-fault bursts rotating across replicas
	SilenceDelta float64 // relative change vs baseline (positive = faster)
	RotationDrop float64 // baseline/rotation throughput factor
}

// String renders the study.
func (r DoSResult) String() string {
	var b strings.Builder
	header(&b, "DoS study (§7.3): PBFT throughput under targeted attacks")
	fmt.Fprintf(&b, "%-34s %8.1f ops/s\n", "Baseline (interception only)", r.BaselineOps)
	fmt.Fprintf(&b, "%-34s %8.1f ops/s (%+.0f%%)\n", "One replica silenced", r.SilencedOps, 100*r.SilenceDelta)
	fmt.Fprintf(&b, "%-34s %8.1f ops/s (%.1fx drop)\n", "Rotating 500-fault bursts", r.RotationOps, r.RotationDrop)
	return b.String()
}

// DoS measures the two attack scenarios against the pass-through
// baseline.
func DoS(ops int) (DoSResult, error) {
	if ops <= 0 {
		ops = 25
	}
	const think = 4 * time.Millisecond
	run := func(policy distsim.Policy) (float64, error) {
		s, err := lossScenario(-1) // probability ignored; policy decides
		if err != nil {
			return 0, err
		}
		ctrl := distsim.NewController(policy)
		cl := pbft.NewCluster(1, pbft.BuildPatched)
		if err := cl.InstallScenario(s, core.WithDecider(ctrl)); err != nil {
			return 0, err
		}
		if err := cl.Start(); err != nil {
			return 0, err
		}
		completed, perOp := cl.RunPaced(ops, think, 2*time.Second)
		cl.Stop()
		if completed == 0 || perOp == 0 {
			return 0, nil
		}
		return 1 / perOp.Seconds(), nil
	}
	var res DoSResult
	var err error
	if res.BaselineOps, err = run(nil); err != nil {
		return res, err
	}
	if res.SilencedOps, err = run(distsim.SilencePolicy{Node: "R3"}); err != nil {
		return res, err
	}
	// The rotation includes the primary's node: muting whoever
	// currently leads forces a view change, and by the time a new
	// primary settles the attack has moved on — "targeting the
	// reconfiguration protocol, aiming to confuse it" (§7.3).
	if res.RotationOps, err = run(&distsim.RotationPolicy{
		Nodes: []string{"R0", "R1", "R2", "R3"}, Burst: 500,
	}); err != nil {
		return res, err
	}
	if res.BaselineOps > 0 {
		res.SilenceDelta = res.SilencedOps/res.BaselineOps - 1
		if res.RotationOps > 0 {
			res.RotationDrop = res.BaselineOps / res.RotationOps
		}
	}
	return res, nil
}
