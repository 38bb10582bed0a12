// Package controller orchestrates fault-injection test campaigns — the
// LFI controller of §2.
//
// Given a target (how to start the program under test and how to
// exercise it) and a set of injection scenarios, the controller runs one
// test per scenario: it builds a fresh process image, compiles and
// installs the scenario's runtime, invokes the workload script, monitors
// whether the program terminates normally or abnormally (crash kind and
// reason), and collects the injection log for diagnosis and replay.
//
// Tests in a campaign are independent by construction (each run gets its
// own process image and runtime), so campaigns can execute on a worker
// pool: CampaignParallel distributes runs across workers and still
// returns outcomes in scenario order, byte-identical to the sequential
// Campaign under a fixed seed.
package controller

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lfi/internal/core"
	"lfi/internal/coverage"
	"lfi/internal/libsim"
	"lfi/internal/scenario"
)

// Target describes one program under test.
type Target struct {
	// Name identifies the system (e.g. "minivcs").
	Name string
	// Start builds a fresh process image with fixtures staged and
	// returns the workload (the developer-provided script) bound to
	// that image. It is called once per test, so runs are independent;
	// it must be safe to call from concurrent campaign workers. A
	// workload error marks workload-detected misbehaviour that is not
	// a crash (e.g. wrong output).
	Start func() (*libsim.C, func() error)
	// Recycle, when non-nil, takes the process image back after the
	// run's outcome has been fully captured and the runtime detached.
	// Pooled targets reset and reuse the image for a later Start; the
	// controller guarantees nothing still references it. Targets
	// without Recycle keep the one-image-per-run behaviour.
	Recycle func(*libsim.C)
	// Coverage asks RunOne to copy the blocks the run executed (the
	// image's coverage recorder) onto Outcome.Cov/CovU.
	Coverage bool
}

// Outcome is the observed result of one test run.
type Outcome struct {
	Scenario   *scenario.Scenario
	Crash      *libsim.Crash // non-nil on abnormal termination
	WorkErr    error         // workload-detected failure (not a crash)
	Injections int
	Log        *core.Log
	Elapsed    time.Duration
	// Cov is the run's coverage, a bitset over the system's block
	// universe CovU (both nil unless Target.Coverage was set).
	Cov  coverage.Bitset
	CovU *coverage.Index
}

// Failed reports whether the run ended abnormally in any way.
func (o Outcome) Failed() bool { return o.Crash != nil || o.WorkErr != nil }

// String summarizes the outcome in one line.
func (o Outcome) String() string {
	name := "<none>"
	if o.Scenario != nil {
		name = o.Scenario.Name
	}
	switch {
	case o.Crash != nil:
		return fmt.Sprintf("%-50s %s (%s) after %d injections", name, "CRASH", o.Crash.Kind, o.Injections)
	case o.WorkErr != nil:
		return fmt.Sprintf("%-50s FAIL: %v (%d injections)", name, o.WorkErr, o.Injections)
	default:
		return fmt.Sprintf("%-50s ok (%d injections)", name, o.Injections)
	}
}

// RunOne executes a single test: fresh process, scenario installed,
// workload run under crash monitoring.
func RunOne(tgt Target, s *scenario.Scenario, opts ...core.Option) (Outcome, error) {
	begin := time.Now()
	proc, workload := tgt.Start()
	out := Outcome{Scenario: s}
	var rt *core.Runtime
	if s != nil {
		var err error
		rt, err = core.New(proc, s, opts...)
		if err != nil {
			if tgt.Recycle != nil {
				tgt.Recycle(proc)
			}
			return out, err
		}
		rt.Install()
	}
	out.Crash, out.WorkErr = monitor(workload)
	if tgt.Coverage && proc.Cov != nil {
		out.Cov, out.CovU = proc.Cov.Bits().Clone(), proc.Cov.Index()
	}
	// Teardown order matters for pooled targets: capture everything the
	// outcome needs, detach the runtime from the dispatcher, release the
	// runtime for reuse, and only then hand the image back — once
	// Recycle returns, another worker may reset and reuse it. (A panic
	// that escapes monitor skips recycling; the pool just loses one
	// image.)
	if rt != nil {
		out.Injections = int(rt.Injections())
		out.Log = rt.Log()
		rt.Uninstall()
		rt.Release()
	}
	if tgt.Recycle != nil {
		tgt.Recycle(proc)
	}
	out.Elapsed = time.Since(begin)
	return out, nil
}

// monitor runs the workload and converts simulated crashes (panics
// carrying *libsim.Crash) into observations, re-raising anything else.
func monitor(workload func() error) (crash *libsim.Crash, werr error) {
	defer func() {
		if r := recover(); r != nil {
			if cr, ok := r.(*libsim.Crash); ok {
				crash = cr
				return
			}
			panic(r)
		}
	}()
	werr = workload()
	return
}

// Campaign runs one test per scenario and returns all outcomes.
func Campaign(tgt Target, scenarios []*scenario.Scenario, opts ...core.Option) ([]Outcome, error) {
	outcomes := make([]Outcome, 0, len(scenarios))
	for _, s := range scenarios {
		o, err := RunOne(tgt, s, opts...)
		if err != nil {
			return outcomes, fmt.Errorf("controller: scenario %q: %w", s.Name, err)
		}
		outcomes = append(outcomes, o)
	}
	return outcomes, nil
}

// RunN executes n independent test runs on a pool of workers and returns
// their outcomes in index order. run(i) performs the i-th test (a RunOne
// with the i-th scenario or seed). If any run errors or panics, RunN
// mirrors the sequential contract: the error or panic at the smallest
// failing index wins — errors come back with the outcomes of every run
// below that index, and panics (a workload logic bug escaping the crash
// monitor) re-raise on the caller's goroutine instead of killing the
// process from a worker.
func RunN(workers, n int, run func(i int) (Outcome, error)) ([]Outcome, error) {
	return RunNContext(context.Background(), workers, n, run)
}

// RunNContext is RunN under a context. Cancellation is cooperative at
// run granularity: in-flight tests finish (a test never observes a torn
// process image), no new test starts afterwards, and the call returns
// the contiguous prefix of completed outcomes together with ctx.Err().
//
// Runs execute on the process-wide set of long-lived workers (see
// job.start), never on the caller, so a run's deep stack is grown once
// per worker rather than once per call. A run that errors or panics
// stops the call from starting higher indexes: every index below it
// was already taken, so the contiguous prefix up to the first failure
// is complete either way.
func RunNContext(ctx context.Context, workers, n int, run func(i int) (Outcome, error)) ([]Outcome, error) {
	if n <= 0 {
		return []Outcome{}, nil
	}
	j := jobs.Get().(*job)
	j.ctx, j.n, j.run = ctx, n, run
	j.next.Store(0)
	j.stop.Store(false)
	j.outcomes = make([]Outcome, n)
	if cap(j.res) < n {
		j.res = make([]result, n)
	}
	j.res = j.res[:n]
	j.start(min(max(workers, 1), n))
	j.wg.Wait()

	outs, err := j.outcomes, ctx.Err()
	for i := range j.res {
		r := &j.res[i]
		if r.panic != nil {
			v := r.panic
			j.release()
			panic(v)
		}
		if !r.done {
			// Only cancellation or an earlier failure leaves gaps, and
			// a failure returns above; report the prefix.
			outs = outs[:i]
			break
		}
		if r.err != nil {
			outs, err = outs[:i], r.err
			break
		}
	}
	j.release()
	return outs, err
}

// job is one RunNContext call, shared by the workers serving it. Jobs
// are recycled, so a call allocates only the outcomes it returns.
type job struct {
	ctx  context.Context
	n    int
	run  func(i int) (Outcome, error)
	next atomic.Int64 // the next index to take
	stop atomic.Bool  // a run failed: take no further index

	outcomes []Outcome
	res      []result
	wg       sync.WaitGroup
}

// result is how one index of a job ended.
type result struct {
	done  bool
	err   error
	panic any
}

var jobs = sync.Pool{New: func() any { return new(job) }}

// release drops everything the finished call referenced and recycles
// the job.
func (j *job) release() {
	clear(j.res)
	j.ctx, j.run, j.outcomes = nil, nil, nil
	jobs.Put(j)
}

// idle holds the parked workers' hand-off channels, most recently
// parked last. Workers live as long as the process, like the pooled
// process images and runtimes: a run grows a worker's stack to the
// depth of RunOne once, and later calls reuse it, the warmest first.
// A worker is added only when none is parked, so there are as many as
// the most runs the process ever executed at once.
var idle struct {
	sync.Mutex
	workers []chan *job
}

// start hands j to workers workers: parked ones first, fresh ones when
// none is parked.
func (j *job) start(workers int) {
	j.wg.Add(workers)
	for w := 0; w < workers; w++ {
		idle.Lock()
		var next chan *job
		if k := len(idle.workers); k > 0 {
			next = idle.workers[k-1]
			idle.workers = idle.workers[:k-1]
		}
		idle.Unlock()
		if next != nil {
			next <- j
		} else {
			go worker(j)
		}
	}
}

// worker serves jobs until the process exits. It parks itself before
// it signals the job done, so a caller that starts its next call at
// once finds it parked; the buffered hand-off never blocks start.
func worker(j *job) {
	next := make(chan *job, 1)
	for {
		j.work()
		idle.Lock()
		idle.workers = append(idle.workers, next)
		idle.Unlock()
		j.wg.Done()
		j = <-next
	}
}

// work takes indexes until none is left, the context is done or a run
// failed. A panic is recorded for the caller to re-raise: it must not
// kill the process from a worker, nor end the worker.
func (j *job) work() {
	for j.ctx.Err() == nil && !j.stop.Load() {
		i := int(j.next.Add(1)) - 1
		if i >= j.n {
			return
		}
		func() {
			r := &j.res[i]
			defer func() {
				if v := recover(); v != nil {
					r.panic = v
					j.stop.Store(true)
				}
			}()
			j.outcomes[i], r.err = j.run(i)
			r.done = true
			if r.err != nil {
				j.stop.Store(true)
			}
		}()
	}
}

// CampaignParallel is Campaign on a worker pool: one test per scenario,
// executed by up to workers goroutines, with outcomes returned in
// scenario order. Runs are independent (fresh process image and runtime
// each), so with a fixed seed the result is identical to the sequential
// Campaign. workers <= 1 runs the scenarios one at a time.
func CampaignParallel(tgt Target, scenarios []*scenario.Scenario, workers int, opts ...core.Option) ([]Outcome, error) {
	return RunNContext(context.Background(), workers, len(scenarios), func(i int) (Outcome, error) {
		o, err := RunOne(tgt, scenarios[i], opts...)
		if err != nil {
			return o, fmt.Errorf("controller: scenario %q: %w", scenarios[i].Name, err)
		}
		return o, nil
	})
}

// workloadPrefix marks signatures of workload-detected failures (the
// program recovered gracefully; no abnormal termination).
const workloadPrefix = "workload: "

// Bug is a distinct failure discovered by a campaign, deduplicated by
// failure signature (crash kind + reason, or workload error text).
type Bug struct {
	System    string
	Signature string
	Scenarios []string // scenarios that reproduced it
}

// IsCrash reports whether the signature records an abnormal termination
// rather than a workload-detected failure.
func (b Bug) IsCrash() bool { return !strings.HasPrefix(b.Signature, workloadPrefix) }

// FailureSignature computes the deduplication signature of a failed
// outcome. The signature combines the failure (crash kind + reason, or
// workload error) with the causal injection — the function and program
// call site of the last fault injected before the failure. This is how
// the paper's developers connect injections to bug manifestations via
// the LFI log, and it distinguishes e.g. Git's three unchecked-malloc
// crashes, which share a reason but live at different source locations.
// ok is false for a passing run.
func FailureSignature(o Outcome) (sig string, ok bool) {
	if !o.Failed() {
		return "", false
	}
	if o.Crash != nil {
		sig = fmt.Sprintf("%s: %s", o.Crash.Kind, o.Crash.Reason)
	} else {
		sig = workloadPrefix + o.WorkErr.Error()
	}
	if o.Crash != nil && o.Log != nil {
		if last, ok := o.Log.Last(); ok {
			site := ""
			if len(last.Stack) > 0 {
				f := last.Stack[len(last.Stack)-1]
				site = fmt.Sprintf("%s+%#x", f.Module, f.Offset)
			}
			sig += fmt.Sprintf(" [inject %s at %s]", last.Func, site)
		}
	}
	return sig, true
}

// DistinctBugs deduplicates campaign failures into the Table 1 shape,
// grouping outcomes by FailureSignature.
func DistinctBugs(system string, outcomes []Outcome) []Bug {
	bySig := map[string][]string{}
	for _, o := range outcomes {
		sig, failed := FailureSignature(o)
		if !failed {
			continue
		}
		names := bySig[sig]
		if o.Scenario != nil {
			names = append(names, o.Scenario.Name)
		}
		bySig[sig] = names
	}
	return SortBugs(system, bySig)
}

// SortBugs renders failures grouped by signature (signature → names of
// the scenarios that reproduced it) as Bugs sorted by signature — the
// one rendering campaigns, sessions and the explorer share.
func SortBugs(system string, bySig map[string][]string) []Bug {
	sigs := make([]string, 0, len(bySig))
	for s := range bySig {
		sigs = append(sigs, s)
	}
	sort.Strings(sigs)
	out := make([]Bug, 0, len(sigs))
	for _, s := range sigs {
		out = append(out, Bug{System: system, Signature: s, Scenarios: bySig[s]})
	}
	return out
}
