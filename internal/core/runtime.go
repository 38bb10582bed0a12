// Package core implements the LFI runtime: it compiles a fault
// injection scenario into per-function interception entries, installs
// itself as the interposition hook of a simulated process, evaluates
// triggers on every intercepted call, injects faults (return value plus
// errno side effect), and records everything in the injection log.
//
// The runtime reproduces the evaluation rules of §4.3:
//
//   - the trigger list for the intercepted function is found in O(1),
//     independent of scenario size (a touched-function bitset, then
//     the rank of the function's bit);
//   - triggers inside one <function> element are a conjunction evaluated
//     in scenario order with short-circuiting;
//   - repeated <function> elements for the same function form a
//     disjunction, evaluated in scenario order;
//   - trigger instances are initialized lazily, right before their first
//     evaluation, to avoid program-startup overhead.
//
// Compilation is split in two (see Program): the immutable entry table
// is compiled once per scenario and memoized on the scenario itself,
// and New only assembles the small per-run overlay. Overlays come from
// one process-wide pool that Release refills, whatever scenario they
// last ran, so the steady-state run loop allocates almost nothing.
package core

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"lfi/internal/errno"
	"lfi/internal/interpose"
	"lfi/internal/libsim"
	"lfi/internal/scenario"
	"lfi/internal/trigger"
)

// instance is one live trigger instance for one run. The same instance
// may be referenced from several function associations (that is how
// stateful triggers observe lock/unlock while injecting into read).
// Instances are embedded in a Runtime-owned slice and reset in place
// between runs, never copied.
type instance struct {
	decl *declInfo
	env  *trigger.Env

	// state is 0 until the first get initializes the trigger, then 1;
	// mu serializes the one-time initialization across simulated
	// threads. Unlike sync.Once this is resettable between runs.
	state atomic.Uint32
	mu    sync.Mutex
	trig  trigger.Trigger
	err   error
}

// get lazily instantiates and initializes the trigger (§4.3: "each
// trigger is initialized right before it is invoked for the first
// time").
func (in *instance) get() (trigger.Trigger, error) {
	if in.state.Load() == 1 {
		return in.trig, in.err
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.state.Load() != 1 {
		in.init()
		in.state.Store(1)
	}
	return in.trig, in.err
}

func (in *instance) init() {
	t, err := trigger.New(in.decl.class)
	if err != nil {
		in.err = err
		return
	}
	if b, ok := t.(trigger.EnvBinder); ok {
		b.SetEnv(in.env)
	}
	args := in.decl.args
	if args == nil {
		args = &trigger.Args{Name: "args"}
	}
	if err := t.Init(args); err != nil {
		in.err = err
		return
	}
	in.trig = t
}

// clear disarms the instance when its Runtime is released: the next
// get after a later acquire builds a fresh trigger, so no cross-run
// trigger state (Singleton.fired, CallStack frame lists grown by Init)
// can leak between runs, and a pooled Runtime pins no trigger,
// declaration or environment.
func (in *instance) clear() {
	in.state.Store(0)
	in.trig = nil
	in.err = nil
	in.decl = nil
	in.env = nil
}

// Option configures a Runtime.
type Option func(*Runtime)

// WithSeed fixes the random source used by Random triggers, making
// campaigns reproducible.
func WithSeed(seed int64) Option {
	return func(r *Runtime) { r.seed = seed }
}

// WithDecider installs the distributed-trigger central controller.
func WithDecider(d trigger.Decider) Option {
	return func(r *Runtime) { r.decider = d }
}

// WithMaxInjections stops injecting after n faults (0 = unlimited). The
// controller uses it for one-fault-per-run campaigns.
func WithMaxInjections(n uint64) Option {
	return func(r *Runtime) { r.maxInject = n }
}

// evalShards is the number of cache-line-padded shards backing the
// trigger-evaluation counter. Concurrent simulated threads land on
// different shards (by thread id), so the §7.4 counter does not become
// a point of cache-line contention on the hot path.
const evalShards = 16

// Runtime is the per-run injection engine for one process: a thin
// overlay (live trigger instances, injection log, rng, counters) over
// an immutable compiled Program.
//
// Scenario entries are compiled into a bitset of touched functions
// plus one entry slot per touched function: an intercepted call whose
// function has no scenario entry bails out with two array reads, no map
// lookup and no allocation, and a touched one finds its slot by the
// rank of its bit.
type Runtime struct {
	prog      *Program
	proc      *libsim.C
	insts     []instance // index-aligned with prog.decls
	log       *Log
	env       trigger.Env
	insp      inspector
	rng       *rand.Rand // built on the first draw; nil if no trigger ever drew
	rngMu     sync.Mutex
	seeded    bool // rng has been seeded with seed since acquire
	seed      int64
	decider   trigger.Decider
	maxInject uint64
	injected  atomic.Uint64
	evals     [evalShards]interpose.PaddedUint64
}

// inspector adapts libsim.C to the trigger.Inspector interface. It is
// embedded in the Runtime and retargeted per run, so binding it into
// the trigger Env costs nothing per acquire.
type inspector struct{ c *libsim.C }

func (i *inspector) FDMode(fd int64) (int64, bool) {
	st, ok := i.c.RawStatFD(fd)
	return st.Mode, ok
}
func (i *inspector) Nonblocking(fd int64) bool         { return i.c.RawNonblocking(fd) }
func (i *inspector) ReadVar(name string) (int64, bool) { return i.c.ReadVar(name) }

// New compiles a scenario for the given process. The scenario is
// validated; unknown trigger classes or dangling references fail here
// rather than mid-campaign. The compiled Program is memoized on the
// scenario (see Compile), and the returned Runtime is drawn from the
// process-wide pool — callers that are done with a run may hand it back
// with Release.
func New(proc *libsim.C, s *scenario.Scenario, opts ...Option) (*Runtime, error) {
	p, err := Compile(s)
	if err != nil {
		return nil, err
	}
	return p.acquire(proc, opts...), nil
}

// runtimes recycles Runtimes between runs of any scenario. A pooled
// Runtime keeps its rng, its instance table's storage and its eval
// shards, so a steady-state acquire allocates only the run's fresh Log.
var runtimes sync.Pool // of *Runtime

// acquire assembles a run-ready overlay Runtime for p: pooled when
// available, freshly built otherwise.
func (p *Program) acquire(proc *libsim.C, opts ...Option) *Runtime {
	r, _ := runtimes.Get().(*Runtime)
	if r == nil {
		r = new(Runtime)
	}
	p.bind(r, proc, opts...)
	return r
}

// bind arms a fresh or released Runtime for one run of p on proc. The
// instance table is resized to p's declarations, reusing its storage
// when it is large enough.
func (p *Program) bind(r *Runtime, proc *libsim.C, opts ...Option) {
	if r.env.Rand == nil {
		r.env.Rand = r.draw
		r.env.Inspect = &r.insp
	}
	r.prog = p
	if n := len(p.decls); n <= cap(r.insts) {
		r.insts = r.insts[:n]
	} else {
		r.insts = make([]instance, n)
	}
	for i := range r.insts {
		r.insts[i].decl = &p.decls[i]
		r.insts[i].env = &r.env
	}
	r.proc = proc
	r.insp.c = proc
	r.seed = 1
	r.decider = nil
	r.maxInject = 0
	for _, o := range opts {
		o(r)
	}
	r.env.Dist = r.decider
	r.seeded = false
	r.log = NewLog()
	r.injected.Store(0)
	for i := range r.evals {
		r.evals[i].V.Store(0)
	}
}

// draw is the trigger Env's random source. Most scenarios never draw,
// so the source is seeded here, on the run's first draw, rather than in
// acquire; the sequence is the same either way.
func (r *Runtime) draw() float64 {
	r.rngMu.Lock()
	defer r.rngMu.Unlock()
	if !r.seeded {
		if r.rng == nil {
			r.rng = rand.New(rand.NewSource(r.seed))
		} else {
			r.rng.Seed(r.seed)
		}
		r.seeded = true
	}
	return r.rng.Float64()
}

// Release returns the runtime to the process-wide pool for reuse by a
// later New on any scenario. The caller must be completely done with
// it: uninstalled, log captured (the Log itself is never recycled, so
// captured logs stay valid). Release drops every reference the run
// held — program, process, log, decider and trigger instances — so a
// pooled Runtime keeps nothing alive. Runtimes that are never released
// are simply collected by the GC.
func (r *Runtime) Release() {
	for i := range r.insts {
		r.insts[i].clear()
	}
	r.insts = r.insts[:0]
	r.prog = nil
	r.proc = nil
	r.insp.c = nil
	r.log = nil
	r.decider = nil
	r.env.Dist = nil
	runtimes.Put(r)
}

// Install splices the runtime into the process's dispatcher.
func (r *Runtime) Install() { r.proc.Disp.Install(r) }

// Uninstall removes the runtime from the dispatcher.
func (r *Runtime) Uninstall() { r.proc.Disp.Install(nil) }

// Log returns the injection log.
func (r *Runtime) Log() *Log { return r.log }

// Injections returns how many faults have been injected so far.
func (r *Runtime) Injections() uint64 { return r.injected.Load() }

// Evals returns how many trigger evaluations have run (the §7.4
// overhead studies report triggerings/second from this counter). The
// count is sharded per thread on the hot path and summed here.
func (r *Runtime) Evals() uint64 {
	var sum uint64
	for i := range r.evals {
		sum += r.evals[i].V.Load()
	}
	return sum
}

// TriggerInstance exposes a live trigger instance by id (tests use it to
// reach stateful triggers). It forces initialization.
func (r *Runtime) TriggerInstance(id string) (trigger.Trigger, error) {
	i := r.prog.decl(id)
	if i < 0 {
		return nil, fmt.Errorf("core: no trigger instance %q", id)
	}
	return r.insts[i].get()
}

// Before implements interpose.Hook: it evaluates the disjunction of
// entries for the intercepted function and injects on the first entry
// whose conjunction holds. Calls to functions the scenario never
// mentions bail on the bitset without touching the entry table.
func (r *Runtime) Before(call *interpose.Call) interpose.Decision {
	id := call.Resolve()
	w := int(id) / 64
	touched := r.prog.touched
	if w >= len(touched) || touched[w]&(1<<(uint(id)%64)) == 0 {
		return interpose.Decision{}
	}
	ens := r.prog.group(id)
	for i := range ens {
		en := &ens[i]
		if !r.evalEntry(en, call) {
			continue
		}
		if en.observational {
			continue
		}
		if r.maxInject != 0 && r.injected.Load() >= r.maxInject {
			continue
		}
		r.injected.Add(1)
		r.log.record(call, en.retval, en.e, en.ids)
		return interpose.Decision{Inject: true, Retval: en.retval, Errno: en.e}
	}
	return interpose.Decision{}
}

// After implements interpose.Hook; pass-through results are not logged,
// matching the paper's log (which records injections, not all calls).
func (r *Runtime) After(*interpose.Call, int64, errno.Errno) {}

// evalEntry evaluates one conjunction with short-circuiting.
func (r *Runtime) evalEntry(en *progEntry, call *interpose.Call) bool {
	if len(en.refs) == 0 {
		return false
	}
	shard := &r.evals[uint(call.Thread)%evalShards]
	for _, ref := range en.refs {
		in := &r.insts[ref.decl]
		t, err := in.get()
		if err != nil {
			// A misconfigured trigger never fires; the error is
			// surfaced once in the log so the tester notices.
			r.log.noteError(in.decl.id, err)
			return false
		}
		shard.V.Add(1)
		v := t.Eval(call)
		if ref.negate {
			v = !v
		}
		if !v {
			return false
		}
	}
	return true
}
