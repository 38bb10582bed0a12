package explore

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lfi/internal/controller"
	"lfi/internal/exec"
)

// MultiResult is the outcome of one exploration session — the
// `lfi explore` shape: per-system results plus the merged totals.
type MultiResult struct {
	Results  []*Result        // one per system, in scheduling-input order
	Executed int              // tests actually run, all systems
	Replayed int              // outcomes reused from stores, all systems
	Bugs     []controller.Bug // all systems, sorted by system then signature
	Elapsed  time.Duration
}

// String renders the cross-system summary after the per-system ones.
func (m *MultiResult) String() string {
	var b strings.Builder
	for _, r := range m.Results {
		b.WriteString(r.String())
	}
	fmt.Fprintf(&b, "explore all: %d systems, %d executed, %d replayed, %d distinct failure signatures (%.2fs)\n",
		len(m.Results), m.Executed, m.Replayed, len(m.Bugs), m.Elapsed.Seconds())
	return b.String()
}

// CrashBugs returns the merged crash signatures (excluding
// workload-detected failures), in Bugs order.
func (m *MultiResult) CrashBugs() []controller.Bug {
	var out []controller.Bug
	for _, b := range m.Bugs {
		if b.IsCrash() {
			out = append(out, b)
		}
	}
	return out
}

// inFlight is how many batches Explore keeps running at once: one
// landing, one executing.
const inFlight = 2

// Explore is the exploration driver: one session over one or more
// systems — a single-system run is the same loop over one config. For
// each config, in parallel (setup), it generates the candidate space,
// runs the coverage baseline and replays the persistent store
// (diff-aware: see impact.go), then it schedules the remaining candidates in
// coverage-guided batches and persists their outcomes. All configs
// share one execution fleet (by convention: a Session passes one fleet
// to every config, and configs without one share a local fleet Explore
// builds and closes) and one store root: LoadStore keys store
// directories by system name, so the configs' Store fields may all point at the
// same directory.
//
// Scheduling interleaves batches across systems by expected coverage
// gain per run (systemScore), computed from outcomes alone: no wall
// clock and no backend speed enters it, so a budgeted session splits
// its budget the same way on every host and every backend mix. Early
// budget flows to whichever target has the most unexplored recovery
// code — that is the seed prior — and a system whose batches keep
// paying off overtakes a nominally larger one that has gone cold. Each
// scheduled batch then fans out across the fleet's mix of
// local/pool/remote backends (exec.Fleet.Run), which decides where it
// runs, never what runs.
//
// Up to inFlight batches run at once, never two of one system: while
// the oldest lands (its outcomes folded, mutants bred), the next
// system's batch keeps the executor busy, and the landed batch's
// outcomes are keyed, stored and appended to the journal by its run's
// store job beside the next batch. Each next system is chosen from the
// state in which every batch but the newest in-flight one has landed —
// a fixed lag of one batch, so the choice still depends on outcomes
// alone. A system's own batches stay
// strictly serial, so an unbudgeted session's per-system results and
// stores are those of running the systems one after another.
//
// budget, when positive, bounds the total tests executed across all
// systems; replayed store hits are free. A launched batch reserves its
// size against the budget until it lands, and only what it ran stays
// spent. Cancellation is honored between test runs: every in-flight
// batch lands before the stores are saved — drained remote responses
// included — no snapshot is ever torn, and the partial MultiResult
// comes back with ctx.Err(), so an interrupted session is fully
// resumable. At the end every run publishes its last status, in input
// order, and then the runs finish — their stores saved — on up to
// GOMAXPROCS goroutines; results and errors are taken in input order.
func Explore(ctx context.Context, budget int, cfgs ...Config) (*MultiResult, error) {
	begin := time.Now()
	seen := make(map[string]bool, len(cfgs))
	for _, cfg := range cfgs {
		name := cfg.withDefaults().System
		if seen[name] {
			// Two runs of one system would double-execute its whole
			// candidate space and race their Store instances over the
			// same store directory.
			return nil, fmt.Errorf("explore: duplicate system %q in cross-system explore", name)
		}
		seen[name] = true
	}
	// local is the one fleet every config without an Exec shares, so
	// its width bounds the session's in-process runs. The configs are
	// copied, so the caller's slice keeps its nil Execs.
	cfgs = append([]Config(nil), cfgs...)
	var local *exec.Fleet
	for i := range cfgs {
		if cfgs[i].Exec == nil {
			if local == nil {
				local = exec.NewFleet(exec.NewLocal(runtime.GOMAXPROCS(0)))
				defer local.Close()
			}
			cfgs[i].Exec = local
		}
	}
	runs, runErr, err := setup(ctx, cfgs)
	if err != nil {
		// Creation failures (bad store, broken baseline) abort the
		// whole session before any scheduling starts.
		return nil, err
	}

	executed := func() int {
		total := 0
		for _, r := range runs {
			total += r.res.Executed
		}
		return total
	}
	// flights are the launched batches, oldest first: at most inFlight,
	// never two of one run. reserved is their summed size, held against
	// the budget until they land.
	var flights []*flight
	reserved := 0
	d := newDispatcher()
	defer d.stop()
	for {
		for runErr == nil && len(flights) < inFlight {
			remaining := 0
			if budget > 0 {
				if remaining = budget - executed() - reserved; remaining <= 0 {
					break
				}
			}
			r := nextRun(runs)
			if r == nil {
				break
			}
			f := r.launch(ctx, remaining, d)
			reserved += len(f.batch)
			flights = append(flights, f)
		}
		if len(flights) == 0 {
			break
		}
		// Land the oldest batch while the newer one runs. Errors and
		// cancellation stop launching, but every in-flight batch still
		// lands, so no completed outcome is lost.
		f := flights[0]
		flights = flights[1:]
		reserved -= len(f.batch)
		if err := f.run.land(f); runErr == nil {
			runErr = err
		}
	}

	for _, r := range runs {
		r.publishStatus()
	}
	// finish flushes and prunes each store even on a shared error, so an
	// interrupted session resumes with no re-execution.
	results := make([]*Result, len(runs))
	errs := make([]error, len(runs))
	fanOut(len(runs), func(i int) { results[i], errs[i] = runs[i].finish(nil) })
	res := &MultiResult{Results: results}
	for i, sysRes := range results {
		if runErr == nil {
			runErr = errs[i]
		}
		res.Executed += sysRes.Executed
		res.Replayed += sysRes.Replayed
		res.Bugs = append(res.Bugs, sysRes.Bugs...)
	}
	sort.Slice(res.Bugs, func(i, j int) bool {
		if res.Bugs[i].System != res.Bugs[j].System {
			return res.Bugs[i].System < res.Bugs[j].System
		}
		return res.Bugs[i].Signature < res.Bugs[j].Signature
	})
	res.Elapsed = time.Since(begin)
	if runErr != nil {
		return res, runErr
	}
	return res, nil
}

// setup creates the configs' runs — each newRun generates, runs its
// baseline and loads its store — on up to GOMAXPROCS goroutines. It
// returns them in input order once every one is ready and writes their
// setup log lines in that order, so the schedule and the log are those
// of creating the runs one after another. ctx is checked before each
// run starts. The first config in input order without a run decides
// the outcome: if ctx stopped it, the runs ahead of it come back with
// ctx's error as runErr; if its creation failed, err is that error.
func setup(ctx context.Context, cfgs []Config) (runs []*run, runErr, err error) {
	type slot struct {
		r           *run
		err, ctxErr error
	}
	slots := make([]slot, len(cfgs))
	fanOut(len(cfgs), func(i int) {
		if slots[i].ctxErr = ctx.Err(); slots[i].ctxErr == nil {
			slots[i].r, slots[i].err = newRun(cfgs[i])
		}
	})
	runs = make([]*run, 0, len(cfgs))
	for _, s := range slots {
		switch {
		case s.ctxErr != nil:
			return runs, s.ctxErr, nil
		case s.err != nil:
			return nil, nil, s.err
		}
		s.r.logSetup()
		runs = append(runs, s.r)
	}
	return runs, nil, nil
}

// fanOut calls f(0) … f(n-1) on up to GOMAXPROCS goroutines, starting
// them in index order, and returns once every call has.
func fanOut(n int, f func(i int)) {
	var next atomic.Int32
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				f(i)
			}
		}()
	}
	wg.Wait()
}

// dispatcher runs launched batches on inFlight goroutines that live for
// the whole session, so a batch starts no goroutine whose stack must
// grow again to the executor's depth.
type dispatcher struct {
	queue chan *flight
	wg    sync.WaitGroup
}

func newDispatcher() *dispatcher {
	d := &dispatcher{queue: make(chan *flight)}
	d.wg.Add(inFlight)
	for i := 0; i < inFlight; i++ {
		go func() {
			defer d.wg.Done()
			for f := range d.queue {
				f.outs, f.err = f.run.cfg.Exec.Run(f.ctx, f.b)
				close(f.done)
			}
		}()
	}
	return d
}

// stop returns once every dispatcher goroutine has exited; every
// launched batch must have landed.
func (d *dispatcher) stop() {
	close(d.queue)
	d.wg.Wait()
}

// systemScore prices one more batch of r in expected new recovery
// blocks per run:
//
//	score = gain + 0.05·uncovered
//
// where gain is the system's gain-per-run EWMA (the uncovered-recovery
// fraction before any batch has run) and uncovered is that fraction —
// a floor that keeps breadth in the mix after gain EWMAs decay.
func systemScore(r *run) float64 {
	rec := r.x.idx.Recovery(r.x.covered)
	uncovered := float64(rec.Blocks-rec.BlocksCovered) / float64(rec.Blocks+1)
	return r.gain.estimate(uncovered) + 0.05*uncovered
}

// gainEWMA is a system's coverage yield: an EWMA of new recovery
// blocks per executed run across this session's batches. Nothing
// persists it, so every session starts from the prior.
type gainEWMA struct {
	PerRun  float64
	Batches int
}

// gainAlpha weights the newest batch. Batches are coarse (tens of
// runs), so the estimate converges in a few batches without
// whipsawing on one unlucky one.
const gainAlpha = 0.4

// observe folds one batch's yield into the EWMA; the first batch
// replaces the prior outright.
func (g *gainEWMA) observe(runs, newBlocks int) {
	if runs <= 0 {
		return
	}
	obs := float64(newBlocks) / float64(runs)
	if g.Batches > 0 {
		obs = gainAlpha*obs + (1-gainAlpha)*g.PerRun
	}
	g.PerRun = obs
	g.Batches++
}

// estimate prices one more run: the EWMA once any batch has been
// folded, else prior.
func (g gainEWMA) estimate(prior float64) float64 {
	if g.Batches == 0 {
		return prior
	}
	return g.PerRun
}

// nextRun picks the not-done run with the highest score, ties broken
// by system name so scheduling is deterministic. A run with a batch in
// flight is not a choice: its next batch waits for that one's outcomes.
func nextRun(runs []*run) *run {
	var best *run
	var bestScore float64
	for _, r := range runs {
		if r.flying || r.done() {
			continue
		}
		score := systemScore(r)
		switch {
		case best == nil, score > bestScore:
			best, bestScore = r, score
		case score == bestScore && r.cfg.System < best.cfg.System:
			best = r
		}
	}
	return best
}
