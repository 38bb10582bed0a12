package pbft

import (
	"fmt"
	"time"

	"lfi/internal/core"
	"lfi/internal/libsim"
	"lfi/internal/netsim"
	"lfi/internal/scenario"
)

// stepTime is the virtual time one step of the Cluster loop covers.
const stepTime = time.Millisecond

// Cluster wires 3f+1 replicas and one client over a fresh simulated
// network — the paper's f=1, four-replica setup plus simple_client.
//
// It runs them as a discrete-event loop on one goroutine, on virtual
// time: each step, every live node drains its socket through PollOnce
// until a round consumes nothing, the replica timers that are due fire,
// and the clock advances by stepTime. A run is therefore a function of
// its scenarios' seeds, whatever the load on the host.
type Cluster struct {
	F        int
	Net      *netsim.Network
	Replicas []*Replica
	Client   *Client
	runtimes []*core.Runtime
	crashes  []*libsim.Crash // per replica: the crash that stopped it
	now      time.Duration   // virtual time
	buf      []byte          // the receive buffer every node polls into
}

// NewCluster builds (but does not start) a cluster of the given build.
func NewCluster(f int, build Build) *Cluster {
	net := netsim.New()
	cl := &Cluster{F: f, Net: net, buf: make([]byte, 4096)}
	for i := 0; i < 3*f+1; i++ {
		cl.Replicas = append(cl.Replicas, NewReplica(i, f, net, build))
	}
	cl.crashes = make([]*libsim.Crash, len(cl.Replicas))
	cl.Client = NewClient("client-0", f, net)
	return cl
}

// InstallScenario compiles and installs the same injection scenario on
// every replica (each replica is its own process with its own runtime).
// Call before Start.
func (cl *Cluster) InstallScenario(s *scenario.Scenario, opts ...core.Option) error {
	for i, r := range cl.Replicas {
		perReplica := append([]core.Option{core.WithSeed(int64(100 + i))}, opts...)
		rt, err := core.New(r.C, s, perReplica...)
		if err != nil {
			return fmt.Errorf("pbft: replica %d: %w", i, err)
		}
		rt.Install()
		cl.runtimes = append(cl.runtimes, rt)
	}
	return nil
}

// Runtimes returns the per-replica runtimes installed by InstallScenario.
func (cl *Cluster) Runtimes() []*core.Runtime { return cl.runtimes }

// Start opens every replica's socket and the client's.
func (cl *Cluster) Start() error {
	for _, r := range cl.Replicas {
		if err := r.Open(); err != nil {
			return err
		}
	}
	return cl.Client.Open()
}

// Stop shuts everything down: every live replica writes its shutdown
// checkpoint. Replica crashes raised there (the checkpoint bug) are
// collected, not propagated.
func (cl *Cluster) Stop() {
	for i, r := range cl.Replicas {
		if cl.live(i) {
			cl.guard(i, r.ShutdownCheckpoint)
		}
	}
	cl.Client.Close()
	for _, rt := range cl.runtimes {
		rt.Uninstall()
	}
}

// live reports whether replica i still runs: it has not crashed, and
// the debug build has not halted it after a failed send.
func (cl *Cluster) live(i int) bool {
	return cl.crashes[i] == nil && !cl.Replicas[i].halted
}

// guard runs f on replica i's behalf, recording a simulated crash as
// the replica's end.
func (cl *Cluster) guard(i int, f func()) {
	defer cl.recoverCrash(i)
	f()
}

// poll runs one PollOnce on replica i and reports whether it consumed
// a datagram; a crash counts as nothing consumed.
func (cl *Cluster) poll(i int) (consumed bool) {
	defer cl.recoverCrash(i)
	return cl.Replicas[i].PollOnce(cl.buf)
}

func (cl *Cluster) recoverCrash(i int) {
	if p := recover(); p != nil {
		cr, ok := p.(*libsim.Crash)
		if !ok {
			panic(p)
		}
		cl.crashes[i] = cr
	}
}

// step runs one virtual millisecond. Each live replica polls until a
// receive fails or finds nothing, then the client drains its socket,
// and these rounds repeat until one consumes nothing. Then every
// rebroadcastEvery each live replica ticks, the client retransmits if
// it is due, and the clock advances.
func (cl *Cluster) step() {
	for _, r := range cl.Replicas {
		r.now = cl.now
	}
	for consumed := true; consumed; {
		consumed = false
		for i := range cl.Replicas {
			for cl.live(i) && cl.poll(i) {
				consumed = true
			}
		}
		for cl.Client.poll(cl.buf) {
			consumed = true
		}
	}
	if cl.now%rebroadcastEvery == 0 {
		for i, r := range cl.Replicas {
			if cl.live(i) {
				cl.guard(i, r.tick)
			}
		}
	}
	cl.Client.tick(cl.now)
	cl.now += stepTime
}

// Idle lets d of virtual time pass with no new operation: the replicas
// keep exchanging messages and their timers keep firing.
func (cl *Cluster) Idle(d time.Duration) {
	for end := cl.now + d; cl.now < end; {
		cl.step()
	}
}

// Invoke submits one operation and runs the cluster until f+1 replicas
// return matching replies, the client retransmitting the request to all
// replicas, or until deadline of virtual time has passed. It returns
// the result and whether the operation completed.
func (cl *Cluster) Invoke(op string, deadline time.Duration) (string, bool) {
	c := cl.Client
	c.submit(op, cl.now)
	for end := cl.now + deadline; cl.now < end; {
		cl.step()
		if !c.inFlight {
			return c.result, true
		}
	}
	c.inFlight = false
	return "", false
}

// RunWorkload submits n sequential operations and returns how many
// completed and the virtual time they took.
func (cl *Cluster) RunWorkload(n int, perOp time.Duration) (completed int, elapsed time.Duration) {
	start := cl.now
	for i := 0; i < n; i++ {
		if _, ok := cl.Invoke(fmt.Sprintf("op-%d", i), perOp); ok {
			completed++
		}
	}
	return completed, cl.now - start
}

// RunPaced is the throughput measurement behind Figure 3 and the DoS
// study: n operations with client think time between them (the paper's
// simple_client pacing). It returns the completed count and the mean
// per-operation latency including think time, in virtual time;
// throughput comparisons divide these latencies.
func (cl *Cluster) RunPaced(n int, think, perOp time.Duration) (completed int, perOpLatency time.Duration) {
	start := cl.now
	for i := 0; i < n; i++ {
		if _, ok := cl.Invoke(fmt.Sprintf("op-%d", i), perOp); ok {
			completed++
		}
		cl.Idle(think)
	}
	elapsed := cl.now - start
	if completed == 0 {
		return 0, elapsed
	}
	return completed, elapsed / time.Duration(completed)
}

// Crashes returns the crash observed on each replica (nil entries for
// healthy replicas).
func (cl *Cluster) Crashes() []*libsim.Crash {
	return append([]*libsim.Crash(nil), cl.crashes...)
}

// FirstCrash returns the first replica crash, if any.
func (cl *Cluster) FirstCrash() *libsim.Crash {
	for _, c := range cl.crashes {
		if c != nil {
			return c
		}
	}
	return nil
}

// AgreeOnPrefix verifies the PBFT safety property over the executed
// operation logs: every pair of correct replicas agrees on the common
// prefix. It returns an error describing the first divergence.
func (cl *Cluster) AgreeOnPrefix() error {
	logs := make([][]string, 0, len(cl.Replicas))
	for i, r := range cl.Replicas {
		if cl.crashes[i] == nil {
			logs = append(logs, r.state)
		}
	}
	for i := 1; i < len(logs); i++ {
		a, b := logs[0], logs[i]
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		for j := 0; j < n; j++ {
			if a[j] != b[j] {
				return fmt.Errorf("pbft: divergence at seq %d: %q vs %q", j+1, a[j], b[j])
			}
		}
	}
	return nil
}
