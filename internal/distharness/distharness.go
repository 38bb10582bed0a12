// Package distharness is the protocol-agnostic scripted replica-trace
// harness: the reusable distributed-recovery layer the paper's
// extensibility claim asks for. A distributed target plugs in as a
// Protocol — a replica factory, an encoded message trace, and a
// liveness/safety oracle — and the harness supplies the rest: the
// recvfrom-interception ↔ trace-datagram loop, zero-depth-buffer loss
// semantics (netsim.Drop), identical for every protocol. Coverage needs
// no harness support: the replica's process image records its hits over
// the system's declared universe, and the controller reads them from
// the image like any other target's.
//
// The loop replays a recorded trace against one replica-under-test.
// Each scripted datagram is staged on the wire and consumed by exactly
// one interposed recvfrom; a failed receive — injected or real — drops
// the staged datagram, modelling a zero-depth socket buffer, so the
// i-th receive interception maps 1:1 to the i-th trace message and
// injected receive faults have real loss semantics. Because the replica
// polls synchronously, exploration over a replica binary is as
// deterministic and as fast as the single-process application targets.
package distharness

import (
	"fmt"
	"sync"

	"lfi/internal/controller"
	"lfi/internal/libsim"
	"lfi/internal/netsim"
)

// Replica is the harness's view of one replica-under-test.
type Replica interface {
	// Image is the replica's simulated process (the controller's
	// injection surface).
	Image() *libsim.C
	// Open creates and binds the replica socket without starting any
	// background loop — the harness drives receives itself.
	Open() error
	// PollOnce performs exactly one non-blocking receive and handles
	// the message if one arrived, reporting whether a datagram was
	// consumed. Crashes raised while handling propagate as panics to
	// the caller (what the controller's monitor expects).
	PollOnce(buf []byte) bool
	// Finish runs the replica's post-trace epilogue (checkpoints,
	// snapshots, shutdown paths — where Table 1 loves to hide bugs).
	Finish()
	// Reset returns the replica to the state NewReplica left it in,
	// whatever the run did to it (a crash included), so a recycled
	// replica runs the trace exactly as a fresh one would.
	Reset()
}

// Protocol describes one distributed target: everything protocol-
// specific the generic trace loop needs. Implementations are stateless,
// comparable values; all per-run state lives in the Replica a
// NewReplica call returns.
type Protocol interface {
	// Name is the registry/system name ("pbft", "raft").
	Name() string
	// Addr is the replica-under-test's network address.
	Addr() string
	// Sinks are the peer and client addresses to bind sink endpoints
	// on, in order, so every outbound send has a live destination.
	Sinks() []string
	// Trace is the recorded message sequence, one encoded datagram per
	// receive interception. The harness calls it once per protocol
	// value and shares the result between runs.
	Trace() [][]byte
	// NewReplica builds a fresh replica-under-test bound to the shared
	// network, its image recording coverage over the system's Blocks.
	NewReplica(net *netsim.Network) Replica
	// Check is the liveness/safety oracle, run after the trace and the
	// epilogue: a non-nil error is a workload-detected failure that is
	// not a crash.
	Check(r Replica) error
}

// shared is what every run of one protocol shares: its encoded trace,
// and the pool of harnesses its Target recycles.
type shared struct {
	trace [][]byte
	pool  sync.Pool // of *Harness
}

// protocols memoizes each protocol's shared state. Trace is a pure
// function of a stateless Protocol value, so encoding it per harness
// would re-encode the same messages on every run. Sharing one slice is
// safe: nothing writes it, and SendTo copies each datagram onto the
// wire.
var protocols sync.Map // Protocol -> *shared

func sharedOf(p Protocol) *shared {
	if sh, ok := protocols.Load(p); ok {
		return sh.(*shared)
	}
	sh, _ := protocols.LoadOrStore(p, &shared{trace: p.Trace()})
	return sh.(*shared)
}

// Harness is one scripted replay of a protocol's trace.
type Harness struct {
	Net *netsim.Network
	R   Replica
	// Drops records which trace messages (by index) were lost to a
	// failed receive — the observable loss ordering, used by the
	// determinism tests.
	Drops []int

	p    Protocol
	sh   *shared
	wire libsim.NetEndpoint // staging endpoint the trace is sent from
	buf  []byte             // the replica's receive buffer
	run  func() error       // bound Run, reused across pooled runs
}

// New stages a fresh replica plus sink endpoints for its peers and
// clients. Endpoint creation order (replica, sinks in Sinks() order,
// then the staging wire) is part of the determinism contract: same
// seed, same network state, same outcome.
func New(p Protocol) *Harness {
	net := netsim.New()
	h := &Harness{Net: net, R: p.NewReplica(net), p: p, sh: sharedOf(p), buf: make([]byte, 4096)}
	h.R.Image().Owner = h
	h.run = h.Run
	h.stage()
	return h
}

// stage binds the sinks in Sinks() order and creates the staging wire.
func (h *Harness) stage() {
	for _, addr := range h.p.Sinks() {
		sink := h.Net.NewEndpoint()
		sink.Bind(addr)
	}
	h.wire = h.Net.NewEndpoint()
}

// Reset returns the harness to the state New left it in, keeping every
// buffer: the network is emptied and its endpoints re-staged in New's
// order, and the replica is reset, so the next Run replays the trace
// exactly as on a fresh harness.
func (h *Harness) Reset() {
	h.Net.Reset()
	h.R.Reset()
	h.Drops = h.Drops[:0]
	h.stage()
}

// Run replays the trace: stage one datagram, let the replica poll once,
// and on a failed receive drop what was on the wire. Crashes propagate
// as panics for the controller's monitor; the protocol's Check decides
// whether a surviving run still failed its workload.
func (h *Harness) Run() error {
	if err := h.R.Open(); err != nil {
		return err
	}
	addr := h.p.Addr()
	for i, payload := range h.sh.trace {
		if e := h.wire.SendTo(addr, payload); e != 0 {
			return fmt.Errorf("%s harness: stage datagram: errno %d", h.p.Name(), e)
		}
		if !h.R.PollOnce(h.buf) {
			// Zero-depth buffer: the datagram is lost.
			if h.Net.Drop(addr) {
				h.Drops = append(h.Drops, i)
			}
		}
	}
	h.R.Finish()
	return h.p.Check(h.R)
}

// Target adapts a protocol to the LFI controller. Start draws a
// harness from the protocol's pool (building one when the pool is
// empty) and Recycle resets it and puts it back once the controller has
// captured the outcome, like the application targets' image pools.
// Concurrent campaign workers each hold distinct harnesses.
func Target(p Protocol) controller.Target {
	sh := sharedOf(p)
	return controller.Target{
		Name: p.Name(),
		Start: func() (*libsim.C, func() error) {
			h, _ := sh.pool.Get().(*Harness)
			if h == nil {
				h = New(p)
			}
			return h.R.Image(), h.run
		},
		Recycle: func(c *libsim.C) {
			if h, ok := c.Owner.(*Harness); ok {
				h.Reset()
				sh.pool.Put(h)
			}
		},
	}
}
