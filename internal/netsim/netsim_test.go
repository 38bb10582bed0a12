package netsim

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"lfi/internal/errno"
	"lfi/internal/libsim"
)

func TestSendReceive(t *testing.T) {
	n := New()
	a := n.NewEndpoint()
	b := n.NewEndpoint()
	if e := a.Bind("A"); e != errno.OK {
		t.Fatal(e)
	}
	if e := b.Bind("B"); e != errno.OK {
		t.Fatal(e)
	}
	if e := a.SendTo("B", []byte("hi")); e != errno.OK {
		t.Fatal(e)
	}
	payload, from, e := b.RecvFrom(100)
	if e != errno.OK || string(payload) != "hi" || from != "A" {
		t.Fatalf("recv %q from %q e=%v", payload, from, e)
	}
}

func TestUnknownDestinationUnreachable(t *testing.T) {
	n := New()
	a := n.NewEndpoint()
	a.Bind("A")
	if e := a.SendTo("ghost", []byte("x")); e != errno.EHOSTUNREACH {
		t.Fatalf("e = %v", e)
	}
}

func TestRecvTimeout(t *testing.T) {
	n := New()
	a := n.NewEndpoint()
	a.Bind("A")
	start := time.Now()
	_, _, e := a.RecvFrom(20)
	if e != errno.ETIMEDOUT {
		t.Fatalf("e = %v", e)
	}
	if time.Since(start) < 15*time.Millisecond {
		t.Fatal("timeout returned too early")
	}
}

func TestRecvPoll(t *testing.T) {
	n := New()
	a := n.NewEndpoint()
	a.Bind("A")
	if _, _, e := a.RecvFrom(0); e != errno.EAGAIN {
		t.Fatalf("poll on empty queue: %v", e)
	}
}

func TestDoubleBindRejected(t *testing.T) {
	n := New()
	a := n.NewEndpoint()
	b := n.NewEndpoint()
	a.Bind("X")
	if e := b.Bind("X"); e != errno.EACCES {
		t.Fatalf("double bind: %v", e)
	}
}

func TestCloseUnbinds(t *testing.T) {
	n := New()
	a := n.NewEndpoint()
	a.Bind("X")
	a.Close()
	b := n.NewEndpoint()
	if e := b.Bind("X"); e != errno.OK {
		t.Fatalf("rebind after close: %v", e)
	}
	a.Close() // double close is a no-op
}

func TestQueueOverflowDropsSilently(t *testing.T) {
	n := New()
	a := n.NewEndpoint()
	b := n.NewEndpoint()
	a.Bind("A")
	b.Bind("B")
	for i := 0; i < queueDepth+10; i++ {
		if e := a.SendTo("B", []byte{byte(i)}); e != errno.OK {
			t.Fatalf("send %d: %v", i, e)
		}
	}
	if got := b.(*Endpoint).Pending(); got != queueDepth {
		t.Fatalf("pending %d", got)
	}
}

func TestPayloadCopied(t *testing.T) {
	n := New()
	a := n.NewEndpoint()
	b := n.NewEndpoint()
	a.Bind("A")
	b.Bind("B")
	buf := []byte("orig")
	a.SendTo("B", buf)
	buf[0] = 'X' // mutate after send
	payload, _, _ := b.RecvFrom(100)
	if string(payload) != "orig" {
		t.Fatal("payload aliased sender buffer")
	}
}

// pair returns a sender bound at "A" and a receiver bound at "B".
func pair(t *testing.T) (*Endpoint, *Endpoint) {
	t.Helper()
	n := New()
	a, b := n.NewEndpoint().(*Endpoint), n.NewEndpoint().(*Endpoint)
	if e := a.Bind("A"); e != errno.OK {
		t.Fatal(e)
	}
	if e := b.Bind("B"); e != errno.OK {
		t.Fatal(e)
	}
	return a, b
}

func TestFIFOAcrossGrowth(t *testing.T) {
	a, b := pair(t)
	next, sent := 0, 0
	// Interleave sends and partial drains, so the ring has wrapped
	// around when it grows.
	for round := 1; round <= 9; round++ {
		for i := 0; i < 3*round; i++ {
			a.SendTo("B", []byte{byte(sent), byte(sent >> 8)})
			sent++
		}
		for i := 0; i < round; i++ {
			p, _, e := b.RecvFrom(0)
			if e != errno.OK || int(p[0])|int(p[1])<<8 != next {
				t.Fatalf("recv %v e=%v, want datagram %d", p, e, next)
			}
			next++
		}
	}
	for ; next < sent; next++ {
		p, _, e := b.RecvFrom(0)
		if e != errno.OK || int(p[0])|int(p[1])<<8 != next {
			t.Fatalf("recv %v e=%v, want datagram %d", p, e, next)
		}
	}
	if _, _, e := b.RecvFrom(0); e != errno.EAGAIN {
		t.Fatalf("drained queue: %v", e)
	}
}

// TestQueueBoundedUnderPartialDrains keeps an endpoint that never fully
// drains — a harness sink, a long-running cluster — busy, and checks
// that neither its pending count nor its backing storage outgrows the
// queue depth.
func TestQueueBoundedUnderPartialDrains(t *testing.T) {
	a, b := pair(t)
	for round := 0; round < 64; round++ {
		for i := 0; i < queueDepth/8; i++ {
			a.SendTo("B", []byte{byte(i)})
		}
		for i := 0; i < queueDepth/16; i++ {
			b.RecvFrom(0)
		}
		if got := b.Pending(); got > queueDepth {
			t.Fatalf("round %d: pending %d > %d", round, got, queueDepth)
		}
		if got := len(b.ring); got > queueDepth {
			t.Fatalf("round %d: ring holds %d slots > %d", round, got, queueDepth)
		}
	}
	// The queue filled long ago; each round tops it up and drains a
	// sixteenth.
	if got, want := b.Pending(), queueDepth-queueDepth/16; got != want {
		t.Fatalf("pending %d, want %d", got, want)
	}
}

func TestBlockingRecvWokenBySend(t *testing.T) {
	a, b := pair(t)
	got := make(chan string, 1)
	go func() {
		p, from, e := b.RecvFrom(-1)
		if e != errno.OK {
			got <- e.String()
			return
		}
		got <- from + ":" + string(p)
	}()
	time.Sleep(10 * time.Millisecond) // let the receiver block first
	a.SendTo("B", []byte("wake"))
	select {
	case s := <-got:
		if s != "A:wake" {
			t.Fatalf("received %q", s)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked receiver never woke")
	}
}

// TestConcurrentTimedReceivers: two receivers waiting on one endpoint
// must between them get every datagram sent. Each round both block
// first, then two datagrams arrive back to back, so a wakeup consumed by
// one receiver must not strand the datagram the other is waiting for.
func TestConcurrentTimedReceivers(t *testing.T) {
	a, b := pair(t)
	const rounds = 20
	got := 0
	for round := 0; round < rounds; round++ {
		results := make(chan errno.Errno, 2)
		for r := 0; r < 2; r++ {
			go func() {
				_, _, e := b.RecvFrom(1000)
				results <- e
			}()
		}
		time.Sleep(2 * time.Millisecond) // let both receivers block
		a.SendTo("B", []byte{1})
		a.SendTo("B", []byte{2})
		for r := 0; r < 2; r++ {
			if e := <-results; e == errno.OK {
				got++
			}
		}
	}
	if got != 2*rounds {
		t.Fatalf("receivers got %d of %d datagrams", got, 2*rounds)
	}
}

// TestPopLeavingDataResignals pins the invariant behind the test
// above in the one interleaving it cannot force: two datagrams queued
// while both receivers were between their empty check and their wait,
// so one wakeup token stands for two datagrams. The receiver that takes
// the token must hand a fresh one on when it leaves data behind.
func TestPopLeavingDataResignals(t *testing.T) {
	a, b := pair(t)
	a.SendTo("B", []byte{1})
	a.SendTo("B", []byte{2})
	<-b.ready // the first receiver's wakeup
	if _, ok := b.pop(); !ok {
		t.Fatal("nothing queued")
	}
	select {
	case <-b.ready:
	default:
		t.Fatal("a datagram is queued but no wakeup is left for the next receiver")
	}
	if _, ok := b.pop(); !ok {
		t.Fatal("second datagram lost")
	}
	select {
	case <-b.ready:
		t.Fatal("empty queue left a wakeup behind")
	default:
	}
}

func TestDropOnGrownQueue(t *testing.T) {
	a, b := pair(t)
	const n = 100
	for i := 0; i < n; i++ {
		a.SendTo("B", []byte{byte(i)})
	}
	for i := 0; i < n/2; i++ {
		if !b.net.Drop("B") {
			t.Fatalf("drop %d found nothing queued", i)
		}
	}
	if got := b.Pending(); got != n/2 {
		t.Fatalf("pending %d after %d drops", got, n/2)
	}
	if p, _, _ := b.RecvFrom(0); p[0] != n/2 {
		t.Fatalf("head after drops is datagram %d, want %d", p[0], n/2)
	}
	for b.Pending() > 0 {
		b.net.Drop("B")
	}
	if b.net.Drop("B") {
		t.Fatal("drop on an empty queue reported a datagram")
	}
}

// TestNewEndpointAllocs pins an idle endpoint at its struct plus its
// wakeup channel: queue storage is only allocated once data queues.
func TestNewEndpointAllocs(t *testing.T) {
	n := New()
	var sink libsim.NetEndpoint // keeps the endpoint on the heap
	if allocs := testing.AllocsPerRun(100, func() { sink = n.NewEndpoint() }); allocs > 2 {
		t.Fatalf("NewEndpoint: %v allocs, want <= 2", allocs)
	}
	_ = sink
	var before, after runtime.MemStats
	const eps = 256
	keep := make([]libsim.NetEndpoint, eps)
	runtime.ReadMemStats(&before)
	for i := range keep {
		keep[i] = n.NewEndpoint()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / eps; per > 512 {
		t.Fatalf("NewEndpoint: %d bytes per endpoint, want well under 1 KB", per)
	}
}

// TestNetworkReset: after traffic, a Drop and a closed endpoint, a
// reset network has no bound address, no queued datagram and no stale
// wake-up; NewEndpoint hands the same endpoints out again in creation
// order, and re-binding the same addresses succeeds.
func TestNetworkReset(t *testing.T) {
	n := New()
	addrs := []string{"A", "B", "C"}
	var eps []*Endpoint
	for _, addr := range addrs {
		e := n.NewEndpoint().(*Endpoint)
		if got := e.Bind(addr); got != errno.OK {
			t.Fatal(got)
		}
		eps = append(eps, e)
	}
	for i := 0; i < 5; i++ {
		eps[0].SendTo("B", []byte{byte(i)})
		eps[0].SendTo("C", []byte{byte(i)})
	}
	eps[1].SendTo("A", []byte("x"))
	if !n.Drop("B") {
		t.Fatal("nothing queued at B")
	}
	eps[2].Close() // closed with datagrams still queued

	n.Reset()
	if len(n.bound) != 0 {
		t.Fatalf("reset network still binds %d addresses", len(n.bound))
	}
	for i, e := range eps {
		if got := e.Pending(); got != 0 {
			t.Fatalf("endpoint %d: %d datagrams queued after reset", i, got)
		}
		if len(e.ready) != 0 {
			t.Fatalf("endpoint %d: stale wake-up token after reset", i)
		}
	}
	if e := eps[0].SendTo("B", []byte("y")); e != errno.EHOSTUNREACH {
		t.Fatalf("send to an address bound before the reset: %v", e)
	}

	for i, addr := range addrs {
		e := n.NewEndpoint().(*Endpoint)
		if e != eps[i] {
			t.Fatalf("NewEndpoint %d after reset: not the network's endpoint %d", i, i)
		}
		if e.closed || e.addr != "" {
			t.Fatalf("endpoint %d: reused with closed=%v addr=%q", i, e.closed, e.addr)
		}
		if got := e.Bind(addr); got != errno.OK {
			t.Fatalf("rebind %s after reset: %v", addr, got)
		}
	}
	if extra := n.NewEndpoint().(*Endpoint); slices.Contains(eps, extra) {
		t.Fatal("a fourth endpoint reused one already handed out")
	}
	eps[0].SendTo("B", []byte("z"))
	if p, from, e := eps[1].RecvFrom(0); e != errno.OK || string(p) != "z" || from != "A" {
		t.Fatalf("after reset: recv %q from %q e=%v", p, from, e)
	}
	if _, _, e := eps[2].RecvFrom(0); e != errno.EAGAIN {
		t.Fatalf("reused endpoint delivered a datagram sent before the reset: %v", e)
	}
}
