package explore

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"lfi/internal/controller"
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

// Explore is the exploration driver: one session over one or more
// systems — a single-system run is the same loop over one config. For
// each config it generates the candidate space, runs the coverage
// baseline and replays the persistent store (diff-aware: see
// impact.go), then schedules the remaining candidates in
// coverage-guided batches and persists their outcomes. All configs
// share the caller's execution fleet (by convention: a Session passes
// one fleet to every config) and one store root: LoadStore keys store
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
// budget, when positive, bounds the total tests executed across all
// systems; replayed store hits are free. Cancellation is honored
// between test runs: every started batch's outcomes are saved —
// drained remote responses included — no snapshot is ever torn, and the
// partial MultiResult comes back with ctx.Err(), so an interrupted
// session is fully resumable.
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
	runs := make([]*run, 0, len(cfgs))
	var runErr error
	for _, cfg := range cfgs {
		if runErr = ctx.Err(); runErr != nil {
			break
		}
		r, err := newRun(cfg)
		if err != nil {
			// Creation failures (bad store, broken baseline) abort the
			// whole session before any scheduling starts.
			return nil, err
		}
		runs = append(runs, r)
	}

	executed := func() int {
		total := 0
		for _, r := range runs {
			total += r.res.Executed
		}
		return total
	}
	for runErr == nil {
		remaining := 0
		if budget > 0 {
			if remaining = budget - executed(); remaining <= 0 {
				break
			}
		}
		r := nextRun(runs)
		if r == nil {
			break
		}
		runErr = r.step(ctx, remaining)
	}

	res := &MultiResult{}
	for _, r := range runs {
		// finish flushes and prunes each store even on a shared error,
		// so an interrupted session resumes with no re-execution.
		sysRes, err := r.finish(nil)
		if runErr == nil {
			runErr = err
		}
		res.Results = append(res.Results, sysRes)
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
// blocks per executed run across scheduling batches. The store index
// persists it under "cost", so a resumed session schedules on it from
// its first batch and re-validation ranks by it (buildDiff.revalBoost).
type gainEWMA struct {
	PerRun  float64 `json:"gain_per_run"`
	Batches int     `json:"batches"`
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
// by system name so scheduling is deterministic.
func nextRun(runs []*run) *run {
	var best *run
	var bestScore float64
	for _, r := range runs {
		if r.done() {
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
