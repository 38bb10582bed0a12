// Package exec abstracts how a batch of fault-injection tests is
// executed — the pluggable execution backend layer behind the public
// Session API.
//
// The paper's technique is embarrassingly parallel at the granularity
// of one injection run: every test stages a fresh process image and a
// fresh runtime, so runs never share state. Up to now that parallelism
// was confined to the controller's in-process worker pool; this package
// turns "where a batch runs" into an interface with three backends:
//
//   - Local — the zero-allocation in-process pool (controller.RunN),
//     now an adapter. Fastest per-run latency, no isolation.
//   - Pool — a fixed pool of worker subprocesses, each driven by a
//     Remote client over its stdin/stdout. A workload panic that
//     escapes the crash monitor kills one worker, not the session; the
//     worker is respawned and the batch slice retried.
//   - Remote — the wire-protocol client, over TCP to `lfi serve`
//     workers. Fan batches across machines.
//
// All three consume a Batch (system name + serialized scenarios + seed)
// and produce the same Outcome records: because runs are deterministic
// under a fixed seed, the three backends are observationally equivalent
// — byte-identical outcome sequences — which is what lets the Fleet
// scheduler route batches by cost alone and requeue a dead backend's
// batch anywhere else without changing results.
package exec

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"lfi/internal/controller"
	"lfi/internal/core"
	"lfi/internal/coverage"
	"lfi/internal/libsim"
	"lfi/internal/scenario"
	"lfi/internal/system"
)

// Kind classifies a backend for latency-class ordering and cost priors.
type Kind int

const (
	// KindLocal runs batches on the in-process worker pool.
	KindLocal Kind = iota
	// KindPool runs batches in a pool of worker subprocesses.
	KindPool
	// KindRemote runs batches on an `lfi serve` worker over TCP.
	KindRemote
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindLocal:
		return "local"
	case KindPool:
		return "pool"
	case KindRemote:
		return "remote"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Info is an executor's capability and cost metadata: the Name keys the
// cost model, Capacity is how many runs the backend absorbs in
// parallel, and Isolated reports whether a crashing test process can
// take the session process down with it.
type Info struct {
	Name     string
	Kind     Kind
	Capacity int
	Isolated bool
}

// Batch is one unit of dispatch: scenarios to run against a registered
// system under a fixed seed. Scenarios ship as canonical XML on the
// wire, so a batch means the same thing to every backend.
type Batch struct {
	System    string
	Seed      int64
	Coverage  bool // collect per-run coverage block IDs
	Scenarios []*scenario.Scenario

	// Image is the image version the dispatching session expects the
	// batch to execute against (explore.ImageVersion of its own
	// binary). Optional; when set, a remote backend whose advertised
	// image for the system differs tags the returned outcomes with its
	// own version so the caller can reconcile them (see Outcome.Image).
	Image string
	// RequireImage restricts dispatch to backends whose image for the
	// system matches Image (or is unknown — the local and pool backends
	// run this very build). The explorer sets it when re-validating
	// outcomes a mixed-build worker produced, so the re-run cannot land
	// on another mismatched worker.
	RequireImage bool

	// Observe, when non-nil, streams each completed outcome (by batch
	// index) as backends finish; the Fleet serializes calls. Wire
	// backends only see the serializable fields above.
	Observe func(i int, o *Outcome)
}

// Outcome is one run's serializable result — the part of a
// controller.Outcome every backend can reproduce bit-for-bit. The
// failure signature is computed where the run executed (it needs the
// injection log), so local, pool and remote batches dedup identically.
type Outcome struct {
	Name        string
	Crashed     bool
	CrashKind   int
	CrashReason string
	CrashThread int
	WorkErr     string
	Signature   string // "" = passed
	Injections  int

	// Cov/CovU are the coverage encoding: a dense bitset over the
	// block universe CovU (nil when the batch collected no coverage).
	// BlockIDs materializes the sorted-ID form at serialization
	// boundaries such as the store.
	Cov  coverage.Bitset
	CovU *coverage.Index

	// Raw carries the full in-process outcome (injection log included)
	// when the run executed locally; wire backends leave it nil.
	Raw *controller.Outcome

	// Image is set (client-side, never on the wire) when the outcome
	// came from a backend whose image version for the batch's system
	// differs from Batch.Image: the version the run actually executed
	// against. Consumers reconcile such outcomes through change-impact
	// analysis instead of folding them as current-image results.
	Image string
}

// BlockIDs returns the run's covered block IDs, sorted, materialized
// fresh from the bitset (nil without coverage). The result is
// caller-owned.
func (o *Outcome) BlockIDs() []string {
	if o.CovU == nil {
		return nil
	}
	return o.CovU.AppendIDs(nil, o.Cov)
}

// Failed reports whether the run ended abnormally in any way.
func (o *Outcome) Failed() bool { return o.Crashed || o.WorkErr != "" }

// Controller reconstructs a controller.Outcome for reporting: the full
// local outcome when available, otherwise a synthesis from the wire
// fields (the injection log and crash stack stay on the worker).
func (o *Outcome) Controller(s *scenario.Scenario) controller.Outcome {
	if o.Raw != nil {
		return *o.Raw
	}
	out := controller.Outcome{Scenario: s, Injections: o.Injections}
	if o.Crashed {
		out.Crash = &libsim.Crash{
			Kind:   libsim.CrashKind(o.CrashKind),
			Reason: o.CrashReason,
			Thread: o.CrashThread,
		}
	}
	if o.WorkErr != "" {
		out.WorkErr = errors.New(o.WorkErr)
	}
	return out
}

// Executor is a pluggable execution backend. Run executes a batch and
// returns the contiguous prefix of completed outcomes: on cancellation
// in-flight runs finish and the prefix comes back with ctx.Err(); on a
// backend failure (dead subprocess, broken connection) the error wraps
// BackendError so schedulers can requeue the unfinished tail elsewhere.
// Implementations must be safe for use by one dispatcher goroutine at a
// time per Run call; Close releases subprocesses or connections.
type Executor interface {
	Info() Info
	Run(ctx context.Context, b *Batch) ([]*Outcome, error)
	Close() error
}

// BackendError marks an executor failure that invalidates the backend,
// not the batch: the scheduler should requeue the batch's unfinished
// runs on another executor.
type BackendError struct {
	Backend string
	Err     error
}

// Error renders the failure.
func (e *BackendError) Error() string { return fmt.Sprintf("exec: backend %s: %v", e.Backend, e.Err) }

// Unwrap exposes the cause.
func (e *BackendError) Unwrap() error { return e.Err }

// IsBackendError reports whether err is a requeue-able backend failure.
func IsBackendError(err error) bool {
	var be *BackendError
	return errors.As(err, &be)
}

// --- the local backend -------------------------------------------------------

// Local is the in-process backend: batches run on the controller's
// zero-allocation worker pool, exactly as they did before this package
// existed. It resolves targets through the system registry.
type Local struct {
	workers int
}

// NewLocal returns the in-process backend with the given worker-pool
// width (<= 0 means 1).
func NewLocal(workers int) *Local {
	if workers <= 0 {
		workers = 1
	}
	return &Local{workers: workers}
}

// Info reports the local backend's metadata.
func (l *Local) Info() Info {
	return Info{Name: "local", Kind: KindLocal, Capacity: l.workers}
}

// Close is a no-op: the local backend holds no resources.
func (l *Local) Close() error { return nil }

// sysCov caches per-system coverage machinery: the block-universe index
// (built from the first run's registrations, immutable afterwards) and
// a pool of per-run trackers, so coverage batches neither rebuild the
// universe nor allocate a tracker per run.
type sysCov struct {
	mu   sync.Mutex
	idx  *coverage.Index
	pool sync.Pool
}

var sysCovs sync.Map // system name -> *sysCov

func covState(sys string) *sysCov {
	if v, ok := sysCovs.Load(sys); ok {
		return v.(*sysCov)
	}
	v, _ := sysCovs.LoadOrStore(sys, &sysCov{})
	return v.(*sysCov)
}

func (s *sysCov) tracker() *coverage.Tracker {
	if tr, ok := s.pool.Get().(*coverage.Tracker); ok {
		return tr
	}
	return coverage.New()
}

func (s *sysCov) release(tr *coverage.Tracker) {
	tr.ResetHits()
	s.pool.Put(tr)
}

// index returns the system's block universe, built once from a tracker
// that has seen a full run's registrations.
func (s *sysCov) index(tr *coverage.Tracker) *coverage.Index {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.idx == nil {
		s.idx = tr.Index()
	}
	return s.idx
}

// Run executes the batch on the in-process pool. Outcomes come back in
// scenario order; under a fixed seed the sequence is identical to a
// sequential campaign (the PR-1 equivalence invariant), which is what
// makes every other backend's output comparable to this one's.
func (l *Local) Run(ctx context.Context, b *Batch) ([]*Outcome, error) {
	d, ok := system.Lookup(b.System)
	if !ok {
		return nil, fmt.Errorf("exec: system %q not registered (have: %v)", b.System, system.Names())
	}
	outs := make([]*Outcome, len(b.Scenarios))
	var obsMu sync.Mutex
	// The plain target is stateless (Start/Recycle functions) and shared
	// by every non-coverage run; coverage runs bind a pooled per-run
	// tracker instead.
	baseTgt := d.Target()
	var sc *sysCov
	if b.Coverage {
		sc = covState(b.System)
	}
	ctrl, err := controller.RunNContext(ctx, l.workers, len(b.Scenarios), func(i int) (controller.Outcome, error) {
		tgt := baseTgt
		var tr *coverage.Tracker
		if sc != nil {
			tr = sc.tracker()
			tgt = d.TargetWithCoverage(tr)
		}
		o, rerr := controller.RunOne(tgt, b.Scenarios[i], core.WithSeed(b.Seed))
		if rerr != nil {
			if tr != nil {
				sc.release(tr)
			}
			return o, fmt.Errorf("exec: scenario %q: %w", b.Scenarios[i].Name, rerr)
		}
		outs[i] = fromController(&o)
		if tr != nil {
			idx := sc.index(tr)
			outs[i].Cov = tr.CoveredBits(idx, nil)
			outs[i].CovU = idx
			sc.release(tr)
		}
		if b.Observe != nil {
			// Streamed in completion order, serialized; the deferred
			// unlock keeps a panicking observer from wedging the pool.
			obsMu.Lock()
			defer obsMu.Unlock()
			b.Observe(i, outs[i])
		}
		return o, nil
	})
	// RunNContext's contiguous-prefix contract: only the prefix it
	// vouches for is returned, even if later indexes finished.
	return outs[:len(ctrl)], err
}

// fromController converts a completed in-process outcome into the
// serializable form, keeping the full outcome on Raw.
func fromController(o *controller.Outcome) *Outcome {
	out := &Outcome{Injections: o.Injections, Raw: o}
	if o.Scenario != nil {
		out.Name = o.Scenario.Name
	}
	if o.Crash != nil {
		out.Crashed = true
		out.CrashKind = int(o.Crash.Kind)
		out.CrashReason = o.Crash.Reason
		out.CrashThread = o.Crash.Thread
	}
	if o.WorkErr != nil {
		out.WorkErr = o.WorkErr.Error()
	}
	if sig, failed := controller.FailureSignature(*o); failed {
		out.Signature = sig
	}
	return out
}
