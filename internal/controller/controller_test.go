package controller

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"lfi/internal/core"
	"lfi/internal/errno"
	"lfi/internal/libsim"
	"lfi/internal/scenario"
)

// toyTarget reads a file; with injection the read fails and, in buggy
// mode, the program dereferences a NULL pointer afterwards.
func toyTarget(buggy bool) Target {
	return Target{
		Name: "toy",
		Start: func() (*libsim.C, func() error) {
			c := libsim.New(1 << 16)
			c.MustWriteFile("/f", []byte("data"))
			return c, func() error {
				th := c.NewThread("toy", "main")
				fd := th.Open("/f", libsim.O_RDONLY)
				buf := make([]byte, 4)
				if th.Read(fd, buf) < 0 {
					if buggy {
						th.Deref(0) // crash
					}
					return errors.New("read failed")
				}
				return nil
			}
		},
	}
}

func injectRead(t *testing.T) *scenario.Scenario {
	t.Helper()
	s, err := scenario.ParseString(`<scenario name="fail-read">
	  <trigger id="a" class="CallCountTrigger"><args><n>1</n></args></trigger>
	  <function name="read" return="-1" errno="EIO"><reftrigger ref="a" /></function>
	</scenario>`)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRunOneCleanRun(t *testing.T) {
	out, err := RunOne(toyTarget(false), nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Failed() || out.Injections != 0 {
		t.Fatalf("outcome %v", out)
	}
	if !strings.Contains(out.String(), "ok") {
		t.Fatalf("String: %s", out.String())
	}
}

func TestRunOneWorkloadError(t *testing.T) {
	out, err := RunOne(toyTarget(false), injectRead(t))
	if err != nil {
		t.Fatal(err)
	}
	if out.Crash != nil || out.WorkErr == nil || out.Injections != 1 {
		t.Fatalf("outcome %v", out)
	}
}

func TestRunOneCrashObserved(t *testing.T) {
	out, err := RunOne(toyTarget(true), injectRead(t))
	if err != nil {
		t.Fatal(err)
	}
	if out.Crash == nil || out.Crash.Kind != libsim.Segfault {
		t.Fatalf("outcome %v", out)
	}
	if out.Log == nil || out.Log.Len() != 1 {
		t.Fatal("injection log missing")
	}
	if !strings.Contains(out.String(), "CRASH") {
		t.Fatalf("String: %s", out.String())
	}
}

func TestRunOneInvalidScenario(t *testing.T) {
	bad := &scenario.Scenario{Functions: []scenario.FunctionAssoc{{Name: "read"}}}
	if _, err := RunOne(toyTarget(false), bad); err == nil {
		t.Fatal("invalid scenario accepted")
	}
}

func TestCampaignCollectsAllOutcomes(t *testing.T) {
	outs, err := Campaign(toyTarget(true), []*scenario.Scenario{injectRead(t), injectRead(t)})
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 2 {
		t.Fatalf("%d outcomes", len(outs))
	}
	bugs := DistinctBugs("toy", outs)
	if len(bugs) != 1 {
		t.Fatalf("bugs %v", bugs)
	}
	if len(bugs[0].Scenarios) != 2 {
		t.Fatalf("bug scenarios %v", bugs[0].Scenarios)
	}
}

// randomRead builds a scenario whose RandomTrigger makes outcomes
// seed-dependent, so sequential/parallel divergence would be visible.
func randomRead(t *testing.T, name string, p float64) *scenario.Scenario {
	t.Helper()
	s, err := scenario.ParseString(fmt.Sprintf(`<scenario name="%s">
	  <trigger id="rnd" class="RandomTrigger"><args><probability>%g</probability></args></trigger>
	  <function name="read" return="-1" errno="EIO"><reftrigger ref="rnd" /></function>
	</scenario>`, name, p))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// outcomeKey flattens everything deterministic about an outcome (it
// drops only Elapsed, which is wall-clock).
func outcomeKey(o Outcome) string {
	logStr := ""
	if o.Log != nil {
		logStr = o.Log.String()
	}
	crash := ""
	if o.Crash != nil {
		crash = fmt.Sprintf("%s:%s:t%d", o.Crash.Kind, o.Crash.Reason, o.Crash.Thread)
	}
	return fmt.Sprintf("%s|%v|%s|%d|%s", o.Scenario.Name, o.WorkErr, crash, o.Injections, logStr)
}

func TestCampaignParallelMatchesSequential(t *testing.T) {
	var scens []*scenario.Scenario
	for i, p := range []float64{0, 0.3, 0.5, 0.9, 1, 0.7, 0.2, 0.4} {
		scens = append(scens, randomRead(t, fmt.Sprintf("rnd-%d", i), p))
	}
	seq, err := Campaign(toyTarget(true), scens, core.WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	par, err := CampaignParallel(toyTarget(true), scens, 8, core.WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(par) {
		t.Fatalf("outcome counts: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if a, b := outcomeKey(seq[i]), outcomeKey(par[i]); a != b {
			t.Fatalf("outcome %d diverges:\nsequential: %s\nparallel:   %s", i, a, b)
		}
	}
	sb, pb := DistinctBugs("toy", seq), DistinctBugs("toy", par)
	if fmt.Sprintf("%+v", sb) != fmt.Sprintf("%+v", pb) {
		t.Fatalf("DistinctBugs diverge:\n%+v\n%+v", sb, pb)
	}
}

func TestRunNOrderAndError(t *testing.T) {
	// Outcomes come back in index order regardless of completion order.
	outs, err := RunN(4, 16, func(i int) (Outcome, error) {
		return Outcome{Injections: i}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range outs {
		if o.Injections != i {
			t.Fatalf("slot %d holds run %d", i, o.Injections)
		}
	}
	// The smallest failing index wins, and outcomes below it survive,
	// mirroring the sequential contract.
	boom := errors.New("boom")
	outs, err = RunN(4, 16, func(i int) (Outcome, error) {
		if i >= 5 {
			return Outcome{}, boom
		}
		return Outcome{Injections: i}, nil
	})
	if err != boom {
		t.Fatalf("err = %v", err)
	}
	if len(outs) != 5 {
		t.Fatalf("%d outcomes survive, want 5", len(outs))
	}
}

func TestRunNContextCancellation(t *testing.T) {
	// A pre-cancelled context runs nothing, sequentially and on a pool.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		outs, err := RunNContext(ctx, workers, 16, func(i int) (Outcome, error) {
			return Outcome{Injections: i}, nil
		})
		if err != context.Canceled || len(outs) != 0 {
			t.Fatalf("workers=%d: %d outcomes, err=%v; want 0, context.Canceled", workers, len(outs), err)
		}
	}

	// Cancelling mid-run: in-flight tests finish, no new test starts,
	// and the contiguous completed prefix comes back with ctx.Err().
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	outs, err := RunNContext(ctx, 2, 64, func(i int) (Outcome, error) {
		if i == 7 {
			cancel()
		}
		return Outcome{Injections: i}, nil
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(outs) == 0 || len(outs) >= 64 {
		t.Fatalf("%d outcomes, want a proper prefix", len(outs))
	}
	for i, o := range outs {
		if o.Injections != i {
			t.Fatalf("prefix slot %d holds run %d", i, o.Injections)
		}
	}
}

// TestRunNReusesWorkers: RunN's workers outlive the call, so repeated
// calls, one at a time or several at once, start no goroutine beyond
// the most runs ever in flight together, and a run's panic does not
// cost the pool its worker.
func TestRunNReusesWorkers(t *testing.T) {
	noop := func(i int) (Outcome, error) { return Outcome{Injections: i}, nil }
	RunN(4, 16, noop)
	before := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		RunN(1, 8, noop)
		RunN(4, 16, noop)
		func() {
			defer func() { _ = recover() }()
			RunN(4, 16, func(i int) (Outcome, error) {
				if i == 3 {
					panic("boom")
				}
				return Outcome{}, nil
			})
		}()
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines after 150 calls, %d before: workers were not reused", after, before)
	}
}

func TestCampaignParallelWorkersClamped(t *testing.T) {
	// More workers than scenarios, and the degenerate 0/1-worker path.
	for _, workers := range []int{0, 1, 64} {
		outs, err := CampaignParallel(toyTarget(false), []*scenario.Scenario{injectRead(t), injectRead(t)}, workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(outs) != 2 {
			t.Fatalf("workers=%d: %d outcomes", workers, len(outs))
		}
	}
}

func TestDistinctBugsSeparatesSignatures(t *testing.T) {
	outs := []Outcome{
		{Crash: &libsim.Crash{Kind: libsim.Segfault, Reason: "a"}},
		{Crash: &libsim.Crash{Kind: libsim.Abort, Reason: "b"}},
		{WorkErr: errors.New("c")},
		{}, // clean: ignored
	}
	bugs := DistinctBugs("x", outs)
	if len(bugs) != 3 {
		t.Fatalf("bugs %v", bugs)
	}
}

func TestNonCrashPanicPropagates(t *testing.T) {
	tgt := Target{
		Name: "panicky",
		Start: func() (*libsim.C, func() error) {
			return libsim.New(0), func() error { panic("logic bug") }
		},
	}
	defer func() {
		if recover() == nil {
			t.Fatal("non-crash panic was swallowed")
		}
	}()
	RunOne(tgt, nil)
}

func TestNonCrashPanicPropagatesParallel(t *testing.T) {
	// A workload logic-bug panic on a pool worker must re-raise on the
	// caller's goroutine (a worker panic would kill the process).
	defer func() {
		if r := recover(); r != "logic bug" {
			t.Fatalf("recovered %v, want the workload's panic value", r)
		}
	}()
	RunN(4, 8, func(i int) (Outcome, error) {
		if i == 5 {
			panic("logic bug")
		}
		return Outcome{}, nil
	})
	t.Fatal("panic swallowed by the worker pool")
}

func TestErrnoUnusedInjection(t *testing.T) {
	// return set, errno "unused": the errno must be left alone.
	s, err := scenario.ParseString(`<scenario>
	  <trigger id="a" class="CallCountTrigger"><args><n>1</n></args></trigger>
	  <function name="read" return="-1" errno="unused"><reftrigger ref="a" /></function>
	</scenario>`)
	if err != nil {
		t.Fatal(err)
	}
	tgt := Target{
		Name: "t",
		Start: func() (*libsim.C, func() error) {
			c := libsim.New(0)
			c.MustWriteFile("/f", []byte("x"))
			return c, func() error {
				th := c.NewThread("t", "m")
				th.SetErrno(errno.EBUSY)
				fd := th.Open("/f", libsim.O_RDONLY)
				if th.Read(fd, make([]byte, 1)) != -1 {
					return errors.New("not injected")
				}
				if th.Errno() != errno.EBUSY {
					return errors.New("errno clobbered: " + th.Errno().String())
				}
				return nil
			}
		},
	}
	out, err := RunOne(tgt, s)
	if err != nil {
		t.Fatal(err)
	}
	if out.Failed() {
		t.Fatalf("outcome %v", out)
	}
}
