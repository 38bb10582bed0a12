// Package netsim provides the in-memory datagram network underneath the
// simulated socket calls.
//
// It deliberately models a *reliable* transport: all loss, delay, and
// partition behaviour in the experiments comes from LFI injecting
// failures into sendto/recvfrom at the library boundary, exactly as the
// paper degrades PBFT's network (§7.3). Keeping the transport itself
// deterministic makes injected faults the only source of nondeterminism.
package netsim

import (
	"sync"
	"time"

	"lfi/internal/errno"
	"lfi/internal/libsim"
)

// queueDepth caps the datagrams pending on one endpoint; a send beyond
// it is dropped silently. Queues start empty and grow on demand, so an
// endpoint costs a few hundred bytes until traffic actually queues.
const queueDepth = 4096

type datagram struct {
	payload []byte
	from    string
}

// Network connects endpoints by string address.
type Network struct {
	mu    sync.Mutex
	bound map[string]*Endpoint
	// eps holds every endpoint the network has created, in creation
	// order; the first live of them are in use since the last Reset,
	// the rest wait, emptied, for NewEndpoint to hand them out again.
	eps  []*Endpoint
	live int
}

// New creates an empty network.
func New() *Network {
	return &Network{bound: make(map[string]*Endpoint)}
}

// NewEndpoint implements libsim.NetBackend. After a Reset it hands the
// network's endpoints out again in creation order before building new
// ones.
func (n *Network) NewEndpoint() libsim.NetEndpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.live < len(n.eps) {
		e := n.eps[n.live]
		n.live++
		return e
	}
	e := &Endpoint{net: n, ready: make(chan struct{}, 1)}
	n.eps = append(n.eps, e)
	n.live++
	return e
}

// Reset returns the network to the state New left it in, keeping its
// endpoints for reuse: every address is unbound, every queue emptied
// and every pending wake-up token drained, so an endpoint NewEndpoint
// hands out next behaves exactly like a fresh one. The caller must be
// done with the network: no receiver may be waiting on an endpoint and
// nothing may use an endpoint obtained before the Reset.
func (n *Network) Reset() {
	n.mu.Lock()
	defer n.mu.Unlock()
	clear(n.bound)
	for _, e := range n.eps[:n.live] {
		e.mu.Lock()
		clear(e.ring)
		e.head, e.n = 0, 0
		e.addr = ""
		e.closed = false
		e.mu.Unlock()
		select {
		case <-e.ready:
		default:
		}
	}
	n.live = 0
}

// Endpoint is one datagram socket.
type Endpoint struct {
	net *Network
	// ready holds a token whenever a datagram may be queued; receivers
	// that find the queue empty wait on it.
	ready  chan struct{}
	mu     sync.Mutex
	ring   []datagram // power-of-two ring, grown on demand up to queueDepth
	head   int        // index of the oldest pending datagram
	n      int        // pending datagrams
	addr   string
	closed bool
}

// push enqueues d, dropping it silently when queueDepth are pending.
func (e *Endpoint) push(d datagram) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.n == queueDepth {
		return // dropped, like UDP under pressure
	}
	if e.n == len(e.ring) {
		grown := make([]datagram, max(4, 2*len(e.ring)))
		k := copy(grown, e.ring[e.head:])
		copy(grown[k:], e.ring[:e.head])
		e.ring, e.head = grown, 0
	}
	e.ring[(e.head+e.n)&(len(e.ring)-1)] = d
	e.n++
	e.signal()
}

// pop dequeues the oldest datagram. When data is left behind it
// re-signals ready, so a second receiver waiting on the endpoint is not
// left asleep by a wakeup the first one consumed.
func (e *Endpoint) pop() (datagram, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.n == 0 {
		return datagram{}, false
	}
	d := e.ring[e.head]
	e.ring[e.head] = datagram{}
	e.head = (e.head + 1) & (len(e.ring) - 1)
	e.n--
	if e.n > 0 {
		e.signal()
	}
	return d, true
}

// signal leaves a token on ready unless one is already there.
func (e *Endpoint) signal() {
	select {
	case e.ready <- struct{}{}:
	default:
	}
}

// Bind attaches the endpoint to an address.
func (e *Endpoint) Bind(addr string) errno.Errno {
	e.net.mu.Lock()
	defer e.net.mu.Unlock()
	if _, taken := e.net.bound[addr]; taken {
		return errno.EACCES
	}
	e.mu.Lock()
	e.addr = addr
	e.mu.Unlock()
	e.net.bound[addr] = e
	return errno.OK
}

// SendTo delivers a datagram to the endpoint bound at dst. Unknown
// destinations are unreachable; a full receive queue drops the datagram
// silently (UDP semantics).
func (e *Endpoint) SendTo(dst string, payload []byte) errno.Errno {
	e.net.mu.Lock()
	target, ok := e.net.bound[dst]
	e.net.mu.Unlock()
	if !ok {
		return errno.EHOSTUNREACH
	}
	e.mu.Lock()
	from := e.addr
	e.mu.Unlock()
	target.push(datagram{payload: append([]byte(nil), payload...), from: from})
	return errno.OK
}

// RecvFrom blocks up to timeoutMs for a datagram (0 = poll, <0 = wait
// forever).
func (e *Endpoint) RecvFrom(timeoutMs int) ([]byte, string, errno.Errno) {
	if d, ok := e.pop(); ok {
		return d.payload, d.from, errno.OK
	}
	if timeoutMs == 0 {
		return nil, "", errno.EAGAIN
	}
	var expired <-chan time.Time // nil: wait forever
	if timeoutMs > 0 {
		timer := time.NewTimer(time.Duration(timeoutMs) * time.Millisecond)
		defer timer.Stop()
		expired = timer.C
	}
	for {
		select {
		case <-e.ready:
			// The token may be stale (another receiver took the data),
			// so look and wait again if the queue is empty.
			if d, ok := e.pop(); ok {
				return d.payload, d.from, errno.OK
			}
		case <-expired:
			return nil, "", errno.ETIMEDOUT
		}
	}
}

// Close unbinds the endpoint.
func (e *Endpoint) Close() {
	e.mu.Lock()
	addr := e.addr
	closed := e.closed
	e.closed = true
	e.mu.Unlock()
	if closed {
		return
	}
	if addr != "" {
		e.net.mu.Lock()
		if e.net.bound[addr] == e {
			delete(e.net.bound, addr)
		}
		e.net.mu.Unlock()
	}
}

// Pending returns the queued datagram count (tests and monitors).
func (e *Endpoint) Pending() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.n
}

// Drop removes and discards one queued datagram at addr, reporting
// whether one was queued. It models a zero-depth receive buffer: a
// datagram that was on the wire while the receiving socket call failed
// is gone, exactly like UDP under load. The PBFT scripted harness uses
// it to give injected recvfrom faults real loss semantics — without it
// an injected receive failure would only delay the datagram, because
// injection skips the dequeue.
func (n *Network) Drop(addr string) bool {
	n.mu.Lock()
	e, ok := n.bound[addr]
	n.mu.Unlock()
	if !ok {
		return false
	}
	_, dropped := e.pop()
	return dropped
}
