package exec

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// CostModel is one system's observed execution economics — the
// scheduling signal the explorer persists in its store index so a
// resumed session starts from measured numbers instead of priors.
//
// GainPerRun is an EWMA of new-recovery-blocks-per-executed-run across
// scheduling batches (how much coverage a marginal run of this system
// still buys); Speed maps backend name to an EWMA of observed runs/sec
// on that backend (how cheaply that backend executes this system).
// Together they price a batch: expected coverage gain per second =
// GainPerRun × runs/sec.
type CostModel struct {
	GainPerRun float64            `json:"gain_per_run"`
	Batches    int                `json:"batches"`
	Speed      map[string]float64 `json:"runs_per_sec,omitempty"`
}

// ewmaAlpha weights the newest observation. Batches are coarse (tens
// of runs), so the model converges in a few batches without whipsawing
// on one noisy measurement.
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
// the scheduling layer between a Session and its backends:
//
//   - a batch is split into contiguous chunks sized by each backend's
//     observed (or prior) runs/sec for the batch's system, so big
//     batches flow to cheap, wide backends and the hot head of the
//     batch — candidates the explorer scored highest — runs on the
//     lowest-latency backend (executors are ordered local, pool,
//     remote);
//   - a chunk whose backend dies (BackendError) is requeued on the
//     surviving executors, up to maxAttempts, so killing a worker
//     never loses work;
//   - completed chunk timings feed the per-system cost model.
//
// Run returns outcomes aligned with the batch's scenarios; an index is
// nil only when cancellation or exhausted retries left that run
// unexecuted — callers requeue exactly those.
type Fleet struct {
	mu    sync.Mutex
	execs []Executor
	dead  map[string]bool
	cost  map[string]*CostModel
	obsMu sync.Mutex
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
		execs: ordered,
		dead:  make(map[string]bool),
		cost:  make(map[string]*CostModel),
	}
}

// pipeliner is implemented by backends that keep several batches in
// flight on one connection (Remote): the scheduler subdivides such a
// backend's chunk so the worker's input queue never drains between
// batches.
type pipeliner interface{ Pipeline() int }

// imaged is implemented by backends that know which image version they
// execute a system as ("" = unknown, treated as this very build: the
// local and pool backends run in-process or re-exec the same binary).
type imaged interface {
	ImageVersion(sys string) string
	FuncFingerprints(sys string) (map[string]string, error)
}

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
// the previous one and sheds any dead mark: a re-registered worker
// comes back to life this way.
func (f *Fleet) Add(e Executor) {
	info := e.Info()
	f.mu.Lock()
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

// FuncsForImage fetches per-function fingerprints for a foreign image
// version some backend advertised for sys — the reconciliation input
// for mixed-build outcomes. It asks the first live backend advertising
// exactly that image.
func (f *Fleet) FuncsForImage(sys, image string) (map[string]string, error) {
	for _, e := range f.live(nil) {
		im, ok := e.(imaged)
		if !ok || im.ImageVersion(sys) != image {
			continue
		}
		return im.FuncFingerprints(sys)
	}
	return nil, fmt.Errorf("exec: no live backend advertises image %s for %s", image, sys)
}

// Close closes every backend.
func (f *Fleet) Close() error {
	f.mu.Lock()
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

// live returns the usable executors, in latency order. A batch that
// requires an image match (re-validation of mixed-build outcomes)
// additionally excludes backends advertising a different image; nil is
// "any batch".
func (f *Fleet) live(b *Batch) []Executor {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []Executor
	for _, e := range f.execs {
		if f.dead[e.Info().Name] {
			continue
		}
		if b != nil && b.RequireImage && b.Image != "" {
			if im, ok := e.(imaged); ok {
				if v := im.ImageVersion(b.System); v != "" && v != b.Image {
					continue
				}
			}
		}
		out = append(out, e)
	}
	return out
}

// markDead retires a backend whose transport failed. Pool backends
// respawn their own workers, so only remotes are retired: a Remote
// closes its connection on any transport error and cannot recover.
func (f *Fleet) markDead(e Executor) {
	if e.Info().Kind != KindRemote {
		return
	}
	f.mu.Lock()
	f.dead[e.Info().Name] = true
	f.mu.Unlock()
}

// model returns the (created-on-demand) cost model for one system.
// Callers hold f.mu.
func (f *Fleet) model(sys string) *CostModel {
	m, ok := f.cost[sys]
	if !ok {
		m = &CostModel{Speed: make(map[string]float64)}
		f.cost[sys] = m
	}
	if m.Speed == nil {
		m.Speed = make(map[string]float64)
	}
	return m
}

// speed returns the backend's runs/sec estimate for sys.
func (f *Fleet) speed(sys string, info Info) float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if v, ok := f.model(sys).Speed[info.Name]; ok && v > 0 {
		return v
	}
	return speedPrior(info)
}

// observeSpeed folds one completed chunk's timing into the model.
func (f *Fleet) observeSpeed(sys string, info Info, runs int, elapsed time.Duration) {
	if runs <= 0 || elapsed <= 0 {
		return
	}
	obs := float64(runs) / elapsed.Seconds()
	f.mu.Lock()
	defer f.mu.Unlock()
	m := f.model(sys)
	if prev, ok := m.Speed[info.Name]; ok && prev > 0 {
		obs = ewmaAlpha*obs + (1-ewmaAlpha)*prev
	}
	m.Speed[info.Name] = obs
}

// ObserveGain folds one scheduling batch's coverage yield into the
// system's gain-per-run EWMA.
func (f *Fleet) ObserveGain(sys string, runs, newBlocks int) {
	if runs <= 0 {
		return
	}
	obs := float64(newBlocks) / float64(runs)
	f.mu.Lock()
	defer f.mu.Unlock()
	m := f.model(sys)
	if m.Batches > 0 {
		obs = ewmaAlpha*obs + (1-ewmaAlpha)*m.GainPerRun
	}
	m.GainPerRun = obs
	m.Batches++
}

// SeedCost primes a system's model from a persisted snapshot (the
// store index), so a resumed session schedules on measured economics.
func (f *Fleet) SeedCost(sys string, c CostModel) {
	if c.Batches == 0 {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	m := f.model(sys)
	m.GainPerRun, m.Batches = c.GainPerRun, c.Batches
	for k, v := range c.Speed {
		m.Speed[k] = v
	}
}

// Cost snapshots a system's model for persistence.
func (f *Fleet) Cost(sys string) CostModel {
	f.mu.Lock()
	defer f.mu.Unlock()
	m := f.model(sys)
	out := CostModel{GainPerRun: m.GainPerRun, Batches: m.Batches, Speed: make(map[string]float64, len(m.Speed))}
	for k, v := range m.Speed {
		out.Speed[k] = v
	}
	return out
}

// GainEstimate prices one more run of sys: the observed EWMA once any
// batch has run, else the caller's prior.
func (f *Fleet) GainEstimate(sys string, prior float64) float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	m := f.model(sys)
	if m.Batches == 0 {
		return prior
	}
	return m.GainPerRun
}

// SpeedEstimate prices the fleet's aggregate throughput for sys —
// runs/sec summed over live backends.
func (f *Fleet) SpeedEstimate(sys string) float64 {
	total := 0.0
	for _, e := range f.live(nil) {
		total += f.speed(sys, e.Info())
	}
	return total
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
		live := f.live(b)
		if len(live) == 0 {
			fatal = &BackendError{Backend: "fleet", Err: fmt.Errorf("no live executors")}
			break
		}
		// First wave: split the whole batch by cost-model share. Retry
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
			wg      sync.WaitGroup
			retryMu sync.Mutex
			retry   []chunk
		)
		for _, d := range wave {
			e, c := d.e, d.c
			wg.Add(1)
			go func(e Executor, c chunk) {
				defer wg.Done()
				sub := &Batch{System: b.System, Seed: b.Seed, Coverage: b.Coverage, Image: b.Image, RequireImage: b.RequireImage, Scenarios: b.Scenarios[c.off:c.end]}
				if b.Observe != nil {
					sub.Observe = func(i int, o *Outcome) {
						f.obsMu.Lock()
						defer f.obsMu.Unlock()
						b.Observe(c.off+i, o)
					}
				}
				begin := time.Now()
				got, err := e.Run(ctx, sub)
				f.observeSpeed(b.System, e.Info(), len(got), time.Since(begin))
				for i, o := range got {
					outs[c.off+i] = o
				}
				if err == nil || (ctx.Err() != nil && errors.Is(err, ctx.Err())) {
					return
				}
				if IsBackendError(err) {
					f.markDead(e)
					if rest := (chunk{off: c.off + len(got), end: c.end, attempts: c.attempts + 1}); rest.off < rest.end {
						if rest.attempts >= maxAttempts {
							retryMu.Lock()
							fatal = err
							retryMu.Unlock()
							return
						}
						retryMu.Lock()
						retry = append(retry, rest)
						retryMu.Unlock()
					}
					return
				}
				retryMu.Lock()
				fatal = err
				retryMu.Unlock()
			}(e, c)
		}
		wg.Wait()
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
// live executor, sized by cost-model share: backend i gets
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
// the wire, taking the round-trip off the critical path. Slices stay
// contiguous and in order (the worker executes them FIFO), so outcome
// determinism is untouched.
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
