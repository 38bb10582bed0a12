package lfi_test

import (
	"context"
	"fmt"
	"strings"

	"lfi"
)

// ExampleNewSession runs one hand-written XML fault-injection scenario
// against a registered target system: build a session, parse the
// scenario, run it, and read the failure report.
func ExampleNewSession() {
	sess, err := lfi.NewSession(lfi.WithWorkers(2))
	if err != nil {
		fmt.Println(err)
		return
	}
	defer sess.Close()

	sys, ok := lfi.LookupSystem("minivcs")
	if !ok {
		fmt.Println("minivcs not registered")
		return
	}
	scen, err := lfi.ParseScenarioString(`<scenario name="first-malloc-fails">
	  <trigger id="all" class="CallCountTrigger"><args><from>1</from><to>200</to></args></trigger>
	  <function name="malloc" return="0" errno="ENOMEM"><reftrigger ref="all" /></function>
	</scenario>`)
	if err != nil {
		fmt.Println(err)
		return
	}

	rep, err := sess.Run(context.Background(), sys, []*lfi.Scenario{scen})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("%d run(s), %d failure(s), %d distinct bug(s)\n",
		len(rep.Outcomes), rep.Failures, len(rep.Bugs))
	// Output: 1 run(s), 1 failure(s), 1 distinct bug(s)
}

// ExampleSession_Explore runs the coverage-guided fault-space explorer
// on one system — no hand-written scenarios — and checks it
// rediscovers every stock Table-1 crash bug the system's descriptor
// advertises. Add WithStore to persist outcomes and resume
// incrementally; resumes are diff-aware, so after a code or
// fault-profile edit only the cached outcomes the edit can reach
// re-execute (see `lfi diff` and DESIGN.md).
func ExampleSession_Explore() {
	sess, err := lfi.NewSession(lfi.WithWorkers(4))
	if err != nil {
		fmt.Println(err)
		return
	}
	defer sess.Close()

	sys, _ := lfi.LookupSystem("minidb")
	res, err := sess.Explore(context.Background(), sys)
	if err != nil {
		fmt.Println(err)
		return
	}

	found := 0
	for _, sb := range sys.StockBugs {
		for _, b := range res.Bugs {
			if b.IsCrash() && strings.Contains(b.Signature, sb.Match) {
				found++
				break
			}
		}
	}
	fmt.Printf("all minidb stock bugs rediscovered: %v\n", found == len(sys.StockBugs))
	// Output: all minidb stock bugs rediscovered: true
}
