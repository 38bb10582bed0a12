package lfi

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"lfi/internal/controller"
	"lfi/internal/exec"
	"lfi/internal/explore"
	"lfi/internal/system"
)

// System describes one registered target system: how to build its
// binary, adapt it to the test controller (with or without coverage),
// which library profiles it links against, and which stock Table-1
// bugs the toolchain must rediscover. Built-in systems self-register
// via internal/system/all; external packages add their own with
// RegisterSystem and become first-class `lfi explore` / Session
// targets with no engine changes.
type System = system.Descriptor

// StockBug is a known bug a System descriptor advertises.
type StockBug = system.StockBug

var (
	// RegisterSystem adds a target system to the global registry
	// (database/sql-driver style; call it from your package's init).
	RegisterSystem = system.Register
	// LookupSystem returns the descriptor registered under name.
	LookupSystem = system.Lookup
	// Systems returns every registered system, sorted by name.
	Systems = system.All
	// SystemNames returns the registered system names, sorted.
	SystemNames = system.Names
)

// Session is the unified, context-aware entry point of the test
// controller and the fault-space explorer. One Session carries the
// campaign-wide knobs — store root, execution backends, run budget,
// seed, logging — and applies them to every system it tests, so
// single-scenario runs, scenario campaigns, per-system exploration and
// cross-system exploration (`lfi explore -all`) all flow through the
// same two methods, Run and Explore/ExploreAll.
//
// Where tests execute is pluggable: by default a session runs batches
// on the in-process worker pool, but WithExecutor/WithExecutors swap in
// or add the members of crash-isolating subprocess pools
// (NewPoolExecutor) and remote `lfi serve` workers (DialExecutor), all
// members of the session's one fleet. Each batch is split across the
// mix by observed backend speed; because all backends produce
// byte-identical outcomes for the same batch and seed, and the explorer
// chooses what to run from outcomes alone, the mix never changes
// results, budget splits or store bytes, only speed. Close releases
// the backends.
//
// A Session is safe for sequential reuse across systems (that is the
// -all workflow: one session, one shared store root, one backend
// fleet); its methods must not be called concurrently with each other.
type Session struct {
	store    string
	workers  int
	budget   int
	seed     int64
	log      io.Writer
	observer func(system string, o Outcome)
	execs    []Executor
	fleet    *exec.Fleet

	// Fleet service mode (WithFleet): the registry address, the
	// goroutine keeping the executor fleet in sync with the registry's
	// live worker set, and the campaign status publisher (see fleet.go).
	fleetReg     string
	fleetWatcher *fleetWatch
	publisher    *fleetPublisher
}

// SessionOption configures a Session. Options validate their arguments:
// NewSession fails fast on a nonsensical knob (non-positive workers, a
// negative budget, an unwritable store root) instead of panicking or
// stalling mid-campaign.
type SessionOption func(*Session) error

// WithStore sets the persistent store root shared by every system the
// session explores (each system keeps its own store directory under
// it); "" disables persistence. NewSession verifies the root is
// creatable and writable.
func WithStore(root string) SessionOption {
	return func(s *Session) error { s.store = root; return nil }
}

// WithWorkers sets the in-process worker-pool width (default
// GOMAXPROCS). It must be positive; it sizes the default local
// execution backend.
func WithWorkers(n int) SessionOption {
	return func(s *Session) error {
		if n <= 0 {
			return fmt.Errorf("lfi: WithWorkers(%d): worker pool width must be positive", n)
		}
		s.workers = n
		return nil
	}
}

// WithBudget bounds executed test runs per Explore or ExploreAll call
// (in total across systems). Replayed store outcomes are free.
// 0 means unlimited; negative budgets are rejected.
func WithBudget(n int) SessionOption {
	return func(s *Session) error {
		if n < 0 {
			return fmt.Errorf("lfi: WithBudget(%d): budget cannot be negative (0 means unlimited)", n)
		}
		s.budget = n
		return nil
	}
}

// WithSeed fixes the runtime random source of every test the session
// runs, making Random triggers reproducible across runs, workers and
// execution backends. (For a bare Runtime outside a session, use
// RuntimeSeed.)
func WithSeed(seed int64) SessionOption {
	return func(s *Session) error { s.seed = seed; return nil }
}

// WithLog streams per-batch exploration progress to w.
func WithLog(w io.Writer) SessionOption {
	return func(s *Session) error { s.log = w; return nil }
}

// WithObserver streams every completed Run outcome to fn as backends
// finish (completion order, serialized); the final report still lists
// outcomes in scenario order.
func WithObserver(fn func(system string, o Outcome)) SessionOption {
	return func(s *Session) error { s.observer = fn; return nil }
}

// WithExecutor makes e the session's only execution backend, replacing
// the default in-process pool. Combine backends with WithExecutors.
func WithExecutor(e Executor) SessionOption { return WithExecutors(e) }

// WithExecutors adds execution backends to the session. Batches fan
// out across the whole mix — local pools, the members of
// crash-isolating subprocess pools (WithExecutors(pool...)), remote
// `lfi serve` workers — in chunks sized by each backend's observed
// speed; a backend that dies has its in-flight work requeued on the
// survivors, and a pool member is respawned. The session takes
// ownership: Close closes every backend.
func WithExecutors(execs ...Executor) SessionOption {
	return func(s *Session) error {
		if len(execs) == 0 {
			return fmt.Errorf("lfi: WithExecutors: no executors given")
		}
		for _, e := range execs {
			if e == nil {
				return fmt.Errorf("lfi: WithExecutors: nil executor")
			}
		}
		s.execs = append(s.execs, execs...)
		return nil
	}
}

// NewSession builds a Session from functional options, failing fast on
// invalid ones: a non-positive WithWorkers, a negative WithBudget, an
// unwritable WithStore root, or a nil executor all error here rather
// than misbehaving mid-campaign.
func NewSession(opts ...SessionOption) (*Session, error) {
	s := &Session{}
	for _, opt := range opts {
		if err := opt(s); err != nil {
			return nil, err
		}
	}
	if s.workers == 0 {
		s.workers = runtime.GOMAXPROCS(0)
	}
	if s.store != "" {
		// Probe the store root now: a typo'd or read-only path should
		// fail session construction, not the first mid-campaign flush.
		if err := os.MkdirAll(s.store, 0o755); err != nil {
			return nil, fmt.Errorf("lfi: WithStore(%q): store root not creatable: %w", s.store, err)
		}
		if err := checkWritable(s.store); err != nil {
			return nil, fmt.Errorf("lfi: WithStore(%q): store root not writable: %w", s.store, err)
		}
	}
	if len(s.execs) == 0 && s.fleetReg == "" {
		// No explicit backends: default to the in-process pool. In fleet
		// mode the backends come from registry discovery instead — an
		// empty initial fleet is legitimate there (workers may join a
		// heartbeat later).
		s.execs = []Executor{exec.NewLocal(s.workers)}
	}
	s.fleet = exec.NewFleet(s.execs...)
	if s.fleetReg != "" {
		if err := s.initFleet(); err != nil {
			s.fleet.Close()
			return nil, err
		}
	}
	return s, nil
}

// Close releases the session's execution backends — worker
// subprocesses are reaped, remote connections closed. The session must
// not be used afterwards. Sessions with only the default local backend
// may skip Close; it is then a no-op.
func (s *Session) Close() error {
	if s.fleetWatcher != nil {
		s.fleetWatcher.close()
	}
	return s.fleet.Close()
}

// Executors reports the session's execution backends and their
// capability metadata, in dispatch (latency) order; a subprocess pool
// is listed member by member.
func (s *Session) Executors() []ExecutorInfo { return s.fleet.Executors() }

// RunReport is Run's final summary.
type RunReport struct {
	System   string
	Outcomes []Outcome // scenario order
	Failures int
	Bugs     []Bug // distinct failure signatures
	Elapsed  time.Duration
}

// Run executes one test per scenario against sys, fanned across the
// session's execution backends — the unified replacement for the old
// RunOne, Campaign and CampaignParallel entry points. Outcomes stream
// to the WithObserver callback as they complete; the report lists them
// in scenario order, identical to a sequential campaign under the
// session seed regardless of which backend ran which slice. On
// cancellation, in-flight tests finish (remote batches drain) and the
// report carries the completed prefix together with ctx.Err(). As in
// Explore, the tests run only on backends that run sys as this build's
// image.
func (s *Session) Run(ctx context.Context, sys *System, scenarios []*Scenario) (*RunReport, error) {
	begin := time.Now()
	bin, _ := sys.Binary()
	b := &exec.Batch{System: sys.Name, Seed: s.seed, Scenarios: scenarios, Image: explore.ImageVersion(bin)}
	if s.observer != nil {
		b.Observe = func(i int, o *exec.Outcome) {
			s.observer(sys.Name, o.Controller(scenarios[i]))
		}
	}
	outs, err := s.fleet.Run(ctx, b)
	rep := &RunReport{System: sys.Name}
	for i, o := range outs {
		if o == nil {
			break // contiguous prefix: everything before the first gap
		}
		rep.Outcomes = append(rep.Outcomes, o.Controller(scenarios[i]))
		if o.Failed() {
			rep.Failures++
		}
	}
	rep.Bugs = distinctExecBugs(sys.Name, outs[:len(rep.Outcomes)])
	rep.Elapsed = time.Since(begin)
	return rep, err
}

// distinctExecBugs deduplicates failures by their worker-computed
// signature — the backend-independent analogue of
// controller.DistinctBugs (whose recomputation would need the
// injection log, which remote outcomes do not carry).
func distinctExecBugs(systemName string, outs []*exec.Outcome) []Bug {
	bySig := map[string][]string{}
	for _, o := range outs {
		if o != nil && o.Signature != "" {
			bySig[o.Signature] = append(bySig[o.Signature], o.Name)
		}
	}
	return controller.SortBugs(systemName, bySig)
}

// config adapts the session knobs to one system's exploration config.
func (s *Session) config(sys *System) ExploreConfig {
	cfg := explore.ConfigForSystem(sys)
	cfg.Store = s.store
	cfg.Seed = s.seed
	cfg.Log = s.log
	cfg.Exec = s.fleet
	if s.publisher != nil {
		cfg.Status = s.publisher.publish
	}
	return cfg
}

// Diff classifies the cached candidate space against the session's
// store without executing a single test or writing anything — the
// engine behind `lfi diff`: which candidates replay as-is, which would
// migrate intact on the next resume, which must re-validate, and which
// were never cached. It requires WithStore.
func (s *Session) Diff(sys *System) (*DiffReport, error) {
	return explore.Diff(s.config(sys))
}

// Lint runs the whole-program interprocedural error-propagation
// analysis on one system without executing a single test — the engine
// behind `lfi lint`: every library call site classified by the paper's
// windowed Algorithm 1 and then refined across frames (checks beyond
// the window, errors checked in a caller, errors provably swallowed
// with their recovery blocks dead). With WithStore, per-function
// summaries persist in the image manifest and a later lint of an
// edited binary recomputes only the changed functions and their
// call-graph ancestors.
func (s *Session) Lint(sys *System) (*LintReport, error) {
	return explore.Lint(s.config(sys))
}

// Explore runs the coverage-guided fault-space explorer on one system,
// batches dispatched across the session's execution backends — the
// ExploreAll driver over that one system. A resume is diff-aware: after
// a code edit, cached outcomes the edit provably cannot reach migrate
// forward and only the rest re-execute (whole-shard invalidation when
// the edit cannot be bounded); after a fault-profile edit, the changed
// callees' cached outcomes re-execute. Cancellation flushes the
// store cleanly — completed local runs and drained remote responses
// included; only candidates that never ran are left for the next
// session — and returns the partial result with ctx.Err(), so the next
// run resumes with no re-execution.
func (s *Session) Explore(ctx context.Context, sys *System) (*ExploreResult, error) {
	res, err := s.ExploreAll(ctx, sys)
	if res == nil || len(res.Results) == 0 {
		return nil, err
	}
	return res.Results[0], err
}

// ExploreAll explores several systems (default: every registered one)
// in one session: a shared backend fleet, a shared store root, and a
// shared budget, with batches interleaved across systems by expected
// new recovery blocks per run — seeded by the uncovered-recovery
// fraction and updated from each system's own outcomes, never from
// timing, so a budgeted session splits its budget the same way on every
// host and backend mix.
// Cancellation flushes every system's store cleanly and returns the
// partial result with ctx.Err().
func (s *Session) ExploreAll(ctx context.Context, systems ...*System) (*ExploreAllResult, error) {
	if len(systems) == 0 {
		systems = Systems()
	}
	cfgs := make([]ExploreConfig, 0, len(systems))
	seen := make(map[string]bool, len(systems))
	for _, sys := range systems {
		if seen[sys.Name] {
			continue // exploring a system twice in one session is a no-op
		}
		seen[sys.Name] = true
		cfgs = append(cfgs, s.config(sys))
	}
	res, err := explore.Explore(ctx, s.budget, cfgs...)
	if s.publisher != nil {
		s.publisher.flush()
	}
	return res, err
}
