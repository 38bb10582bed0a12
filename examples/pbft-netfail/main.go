// PBFT-netfail example: the §7.3 study — degrade the network under a
// running PBFT cluster with LFI's distributed triggers and watch the
// throughput respond (the Figure 3 measurement, in miniature). The
// cluster runs on virtual time, so the per-op latencies it prints are
// the same on every run and take a fraction of a second to produce.
//
//	go run ./examples/pbft-netfail
package main

import (
	"fmt"
	"log"
	"time"

	"lfi/internal/core"
	"lfi/internal/distsim"
	"lfi/internal/pbft"
	"lfi/internal/scenario"
)

func main() {
	lossScenario := `
	<scenario name="degraded-network">
	  <trigger id="loss" class="DistributedTrigger" />
	  <function name="sendto" return="-1" errno="EAGAIN"><reftrigger ref="loss" /></function>
	  <function name="recvfrom" return="-1" errno="EINTR"><reftrigger ref="loss" /></function>
	</scenario>`

	var baseline time.Duration
	for _, p := range []float64{0, 0.5, 0.85} {
		s, err := scenario.ParseString(lossScenario)
		if err != nil {
			log.Fatal(err)
		}
		// Central controller with a loss policy: every replica's
		// distributed trigger consults it, giving a global view.
		ctrl := distsim.NewController(distsim.NewLossPolicy(p, 42))

		cl := pbft.NewCluster(1, pbft.BuildPatched) // f=1: 4 replicas
		if err := cl.InstallScenario(s, core.WithDecider(ctrl)); err != nil {
			log.Fatal(err)
		}
		if err := cl.Start(); err != nil {
			log.Fatal(err)
		}
		completed, perOp := cl.RunPaced(10, 20*time.Millisecond, 3*time.Second)
		cl.Stop()

		slow := 1.0
		if p == 0 {
			baseline = perOp
		} else if baseline > 0 {
			slow = float64(perOp) / float64(baseline)
		}
		fmt.Printf("loss=%.2f  completed=%2d/10  per-op=%-8v (virtual) slowdown=%.2fx  (controller consulted %d times)\n",
			p, completed, perOp.Round(time.Millisecond), slow, ctrl.Consulted())
	}
}
