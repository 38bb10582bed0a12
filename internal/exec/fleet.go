package exec

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

// ewmaAlpha weights the newest runs/sec observation. Chunks are
// coarse (tens of runs), so the estimate converges in a few batches
// without whipsawing on one noisy measurement.
const ewmaAlpha = 0.4

// speedPrior estimates runs/sec for a backend that has not executed
// this system yet. Absolute numbers only matter relative to each
// other: per slot, local in-process dispatch is fastest, a remote
// worker pays framing and transport, and a pool worker pays process
// plumbing on top. The first observation replaces the prior outright.
func speedPrior(info Info) float64 {
	perSlot := map[Kind]float64{KindLocal: 100, KindRemote: 60, KindPool: 25}[info.Kind]
	if perSlot == 0 {
		perSlot = 50
	}
	cap := info.Capacity
	if cap <= 0 {
		cap = 1
	}
	return perSlot * float64(cap)
}

// Fleet owns a mix of executors and fans batches across them. It is
// the scheduling layer between a Session and its backends, and the
// only code that scatters a batch, reassembles its outcomes or
// requeues after a backend failure:
//
//   - a batch runs only on backends that run its build (Batch.Image):
//     a remote worker built from another commit never gets it, and a
//     pool member, which re-execs this binary, always qualifies;
//   - a batch is split into contiguous chunks sized by each backend's
//     observed (or prior) runs/sec for the batch's system, so big
//     batches flow to cheap, wide backends and the hot head of the
//     batch — candidates the explorer scored highest — runs on the
//     lowest-latency backend (executors are ordered local, pool,
//     remote);
//   - a chunk whose backend dies (BackendError) is requeued on the
//     surviving executors, up to maxAttempts, so killing a worker
//     never loses work; the dead member is respawned if it carries a
//     respawn function (a pool worker), retired otherwise;
//   - completed chunk timings feed a per-(system, backend) runs/sec
//     EWMA. It sizes chunks only: it lives as long as the fleet, is
//     never persisted, and never decides which system runs next, so
//     host timing moves where a run executes, not what runs.
//
// Run returns outcomes aligned with the batch's scenarios; an index is
// nil only when cancellation or exhausted retries left that run
// unexecuted — callers requeue exactly those. A Fleet is not itself an
// Executor: it is the one level where backends compose, and a
// subprocess pool joins it as its n members (NewPool).
type Fleet struct {
	mu     sync.Mutex
	execs  []Executor
	dead   map[string]bool
	speeds map[speedKey]float64 // observed runs/sec EWMA
	closed bool
	obsMu  sync.Mutex

	// respawnMu serializes recover, so concurrent Runs that saw the
	// same member die start exactly one replacement.
	respawnMu sync.Mutex
}

// maxAttempts bounds how many backends one chunk may burn through
// before its failure is treated as fatal rather than environmental.
const maxAttempts = 3

// NewFleet builds a fleet over the given executors, ordered by latency
// class (local, then pool, then remote; stable within a class) so the
// head of every batch lands on the fastest-dispatch backend.
func NewFleet(execs ...Executor) *Fleet {
	ordered := append([]Executor(nil), execs...)
	sort.SliceStable(ordered, func(i, j int) bool {
		return ordered[i].Info().Kind < ordered[j].Info().Kind
	})
	return &Fleet{
		execs:  ordered,
		dead:   make(map[string]bool),
		speeds: make(map[speedKey]float64),
	}
}

// pipeliner is implemented by backends that keep several batches in
// flight on one connection (Remote): the scheduler subdivides such a
// backend's chunk so the worker's input queue never drains between
// batches.
type pipeliner interface{ Pipeline() int }

// imaged is implemented by backends that may run another build
// (Remote): ImageVersion is the image they execute sys as, "" for a
// system they lack. Local does not implement it, and the fleet does
// not ask a pool member: it re-execs this very build.
type imaged interface{ ImageVersion(sys string) string }

// Executors reports the fleet's backends, dead ones included.
func (f *Fleet) Executors() []Info {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]Info, len(f.execs))
	for i, e := range f.execs {
		out[i] = e.Info()
	}
	return out
}

// Add inserts a backend mid-campaign, preserving latency ordering —
// the fleet-watcher path for a worker that registered after the
// session started. A backend with the same name replaces (and closes)
// the previous one and sheds any dead mark: a re-registered worker and
// a respawned pool worker come back to life this way. Adding to a
// closed fleet just closes e.
func (f *Fleet) Add(e Executor) {
	info := e.Info()
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		e.Close()
		return
	}
	var old Executor
	for i, ex := range f.execs {
		if ex.Info().Name == info.Name {
			old = ex
			f.execs = append(f.execs[:i], f.execs[i+1:]...)
			break
		}
	}
	delete(f.dead, info.Name)
	i := sort.Search(len(f.execs), func(i int) bool { return f.execs[i].Info().Kind > info.Kind })
	f.execs = append(f.execs, nil)
	copy(f.execs[i+1:], f.execs[i:])
	f.execs[i] = e
	f.mu.Unlock()
	if old != nil {
		old.Close()
	}
}

// Retire marks a named backend dead without waiting for a transport
// failure — the fleet-watcher path for a registry heartbeat eviction.
// Batches already in flight there still fail over through the normal
// BackendError requeue; Retire just stops new dispatches.
func (f *Fleet) Retire(name string) {
	f.mu.Lock()
	f.dead[name] = true
	f.mu.Unlock()
}

// Close closes every backend.
func (f *Fleet) Close() error {
	f.mu.Lock()
	f.closed = true
	execs := append([]Executor(nil), f.execs...)
	f.mu.Unlock()
	var first error
	for _, e := range execs {
		if err := e.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// live returns the live executors that run b's build, in latency
// order. With none, it returns the error Run fails with instead: one
// naming each live backend, all of which run another build, with the
// image it advertised; with no backend alive, a BackendError.
func (f *Fleet) live(b *Batch) ([]Executor, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []Executor
	for _, e := range f.execs {
		if !f.dead[e.Info().Name] && runs(e, b) {
			out = append(out, e)
		}
	}
	if out != nil {
		return out, nil
	}
	var other []string
	for _, e := range f.execs {
		if name := e.Info().Name; !f.dead[name] {
			other = append(other, fmt.Sprintf("%s advertises %q", name, e.(imaged).ImageVersion(b.System)))
		}
	}
	if other == nil {
		return nil, &BackendError{Backend: "fleet", Err: errors.New("no live executors")}
	}
	return nil, fmt.Errorf("exec: no live backend runs %s image %s: %s", b.System, b.Image, strings.Join(other, ", "))
}

// runs reports whether e executes b.System as b.Image. Images must be
// equal: a worker that lacks the system advertises "" for it. A pool
// member takes every batch, since it re-execs this very binary (an
// `lfi explore -patch` batch carries an image no worker advertises).
func runs(e Executor, b *Batch) bool {
	im, ok := e.(imaged)
	return !ok || b.Image == "" || e.Info().Kind == KindPool || im.ImageVersion(b.System) == b.Image
}

// recover reacts, once per wave, to the members whose transport
// failed: a member carrying a respawn function (a pool worker) is
// replaced by a fresh one under the same name through Add; any other,
// or one whose respawn fails, is retired — a dead Remote cannot
// reconnect. A member already replaced under its name (by a concurrent
// Run's respawn, or the fleet watcher re-dialing a restarted worker)
// is left alone: the replacement is alive.
func (f *Fleet) recover(failed []Executor) {
	f.respawnMu.Lock()
	defer f.respawnMu.Unlock()
	for i, e := range failed {
		name := e.Info().Name
		if slices.ContainsFunc(failed[:i], func(p Executor) bool { return p.Info().Name == name }) {
			continue // several slices of one member failed together
		}
		r, _ := e.(*Remote)
		if r != nil && r.respawn != nil && f.has(r) {
			if fresh, err := r.respawn(); err == nil {
				f.Add(fresh)
				continue
			}
		}
		f.mu.Lock()
		if r == nil || slices.Contains(f.execs, Executor(r)) {
			f.dead[name] = true
		}
		f.mu.Unlock()
	}
}

// has reports whether r is still a member, not yet replaced under its
// name.
func (f *Fleet) has(r *Remote) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return slices.Contains(f.execs, Executor(r))
}

// speedKey names one system on one backend.
type speedKey struct{ sys, backend string }

// speed returns the backend's runs/sec estimate for sys.
func (f *Fleet) speed(sys string, info Info) float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if v := f.speeds[speedKey{sys, info.Name}]; v > 0 {
		return v
	}
	return speedPrior(info)
}

// observeSpeed folds one completed chunk's timing into the estimate.
func (f *Fleet) observeSpeed(sys string, info Info, runs int, elapsed time.Duration) {
	if runs <= 0 || elapsed <= 0 {
		return
	}
	obs := float64(runs) / elapsed.Seconds()
	k := speedKey{sys, info.Name}
	f.mu.Lock()
	defer f.mu.Unlock()
	if prev := f.speeds[k]; prev > 0 {
		obs = ewmaAlpha*obs + (1-ewmaAlpha)*prev
	}
	f.speeds[k] = obs
}

// chunk is one contiguous slice of a batch awaiting execution.
type chunk struct {
	off, end int
	attempts int
}

// dispatch pairs a chunk with the executor chosen to run it.
type dispatch struct {
	c chunk
	e Executor
}

// Run fans one batch across the fleet. See the type comment for the
// contract; the returned error is ctx.Err() after cancellation, or the
// first fatal (non-requeueable) failure.
func (f *Fleet) Run(ctx context.Context, b *Batch) ([]*Outcome, error) {
	n := len(b.Scenarios)
	outs := make([]*Outcome, n)
	if n == 0 {
		return outs, nil
	}
	queue := []chunk{{off: 0, end: n}}
	first := true
	var fatal error
	for len(queue) > 0 && fatal == nil && ctx.Err() == nil {
		live, err := f.live(b)
		if err != nil {
			fatal = err
			break
		}
		// First wave: split the whole batch by speed share. Retry
		// waves keep failed chunks intact and spread them round-robin.
		// Either way, a pipelining backend's chunk is subdivided so
		// several slices ride its connection at once.
		var wave []dispatch
		if first {
			wave = f.split(b.System, live, queue[0])
			queue = queue[1:]
			first = false
		} else {
			for i, c := range queue {
				wave = append(wave, dispatch{c: c, e: live[i%len(live)]})
			}
			queue = nil
		}
		wave = expandWave(wave)
		var (
			wg     sync.WaitGroup
			mu     sync.Mutex
			retry  []chunk
			failed []Executor
		)
		do := func(e Executor, c chunk) {
			sub := &Batch{System: b.System, Seed: b.Seed, Coverage: b.Coverage, Image: b.Image, Scenarios: b.Scenarios[c.off:c.end]}
			if b.Observe != nil {
				sub.Observe = func(i int, o *Outcome) {
					f.obsMu.Lock()
					defer f.obsMu.Unlock()
					b.Observe(c.off+i, o)
				}
			}
			begin := time.Now()
			got, err := e.Run(ctx, sub)
			done := copy(outs[c.off:c.end], got) // the completed prefix
			f.observeSpeed(b.System, e.Info(), done, time.Since(begin))
			if err == nil || (ctx.Err() != nil && errors.Is(err, ctx.Err())) {
				return
			}
			mu.Lock()
			defer mu.Unlock()
			if !IsBackendError(err) {
				fatal = err
				return
			}
			failed = append(failed, e)
			switch rest := (chunk{off: c.off + done, end: c.end, attempts: c.attempts + 1}); {
			case rest.off >= rest.end:
			case rest.attempts >= maxAttempts:
				fatal = err
			default:
				retry = append(retry, rest)
			}
		}
		if len(wave) == 1 {
			// One dispatch (a one-backend fleet, the local default): run
			// it on the caller rather than a fresh goroutine per batch.
			do(wave[0].e, wave[0].c)
		} else {
			for _, d := range wave {
				wg.Add(1)
				go func(d dispatch) {
					defer wg.Done()
					do(d.e, d.c)
				}(d)
			}
			wg.Wait()
		}
		if failed != nil {
			f.recover(failed)
		}
		sort.Slice(retry, func(i, j int) bool { return retry[i].off < retry[j].off })
		queue = append(queue, retry...)
	}
	if fatal != nil {
		return outs, fatal
	}
	if err := ctx.Err(); err != nil {
		return outs, err
	}
	return outs, nil
}

// split cuts one chunk into contiguous sub-chunks, at most one per
// live executor, sized by speed share: backend i gets
// round(n × speedᵢ / Σspeed) runs. The head of the batch — the
// explorer's hottest candidates — goes to live[0], the lowest-latency
// backend; the wide cheap tail fans out behind it. A backend whose
// share rounds to zero is simply skipped (its chunk is not handed to
// someone else: each sub-chunk stays paired with the executor it was
// sized for).
func (f *Fleet) split(sys string, live []Executor, c chunk) []dispatch {
	n := c.end - c.off
	if len(live) == 1 || n == 1 {
		return []dispatch{{c: c, e: live[0]}}
	}
	speeds := make([]float64, len(live))
	total := 0.0
	for i, e := range live {
		speeds[i] = f.speed(sys, e.Info())
		total += speeds[i]
	}
	var out []dispatch
	off := c.off
	for i, e := range live {
		size := int(float64(n)*speeds[i]/total + 0.5)
		if i == len(live)-1 {
			size = c.end - off // the last backend absorbs rounding
		}
		if size > c.end-off {
			size = c.end - off
		}
		if size <= 0 {
			continue
		}
		out = append(out, dispatch{c: chunk{off: off, end: off + size}, e: e})
		off += size
		if off >= c.end {
			break
		}
	}
	if off < c.end {
		// All-zero rounding tail: the fastest backend takes the rest.
		out = append(out, dispatch{c: chunk{off: off, end: c.end}, e: live[0]})
	}
	return out
}

// minPipelineSlice is the smallest slice worth pipelining: below this
// the per-frame overhead outweighs the overlap.
const minPipelineSlice = 8

// expandWave subdivides each pipelining backend's chunk into up to
// Pipeline() contiguous slices dispatched concurrently on the same
// backend: while the worker executes one slice the next is already on
// the wire, taking the round-trip off the critical path. Each slice's
// outcomes land at its own offsets and depend only on scenario and
// seed, so a worker that runs the slices side by side, finishing them
// in any order, leaves outcome determinism untouched.
func expandWave(wave []dispatch) []dispatch {
	out := make([]dispatch, 0, len(wave))
	for _, d := range wave {
		p, ok := d.e.(pipeliner)
		depth := 1
		if ok {
			depth = p.Pipeline()
		}
		n := d.c.end - d.c.off
		if depth > n/minPipelineSlice {
			depth = n / minPipelineSlice
		}
		if depth <= 1 {
			out = append(out, d)
			continue
		}
		off := d.c.off
		for i := 0; i < depth; i++ {
			size := (d.c.end - off) / (depth - i)
			out = append(out, dispatch{c: chunk{off: off, end: off + size, attempts: d.c.attempts}, e: d.e})
			off += size
		}
	}
	return out
}
