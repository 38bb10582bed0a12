package exec

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	osexec "os/exec"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lfi/internal/scenario"

	// The backends resolve targets through the system registry.
	_ "lfi/internal/system/all"
)

// TestMain makes this test binary pool- and serve-capable: a copy
// re-executed with EnvWorker/EnvServe set becomes a protocol worker
// instead of running the tests (the same hook cmd/lfi installs).
func TestMain(m *testing.M) {
	MaybeWorker()
	os.Exit(m.Run())
}

// testScenarios is a small deterministic candidate set against minidb:
// single-shot and burst injections on functions its suite calls.
func testScenarios(t *testing.T) []*scenario.Scenario {
	t.Helper()
	var docs []string
	for _, fn := range []string{"malloc", "read", "fopen"} {
		ret := "-1"
		if fn == "malloc" || fn == "fopen" {
			ret = "0" // pointer-returning functions fail with NULL
		}
		for n := 1; n <= 4; n++ {
			docs = append(docs, fmt.Sprintf(`<scenario name="eq-%s-%d">
			  <trigger id="nth" class="CallCountTrigger"><args><n>%d</n></args></trigger>
			  <function name="%s" return="%s" errno="EIO"><reftrigger ref="nth" /></function>
			</scenario>`, fn, n, n, fn, ret))
		}
	}
	out := make([]*scenario.Scenario, len(docs))
	for i, doc := range docs {
		s, err := scenario.ParseString(doc)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = s
	}
	return out
}

// marshalOutcomes renders outcomes in their backend-independent form:
// every field the wire carries, with coverage materialized as sorted
// block IDs — equal bytes mean equal coverage, not just equal verdicts.
func marshalOutcomes(t *testing.T, outs []*Outcome) []byte {
	t.Helper()
	type form struct {
		Outcome
		Blocks []string
	}
	forms := make([]form, len(outs))
	for i, o := range outs {
		forms[i] = form{Outcome: *o, Blocks: o.BlockIDs()}
		forms[i].Cov, forms[i].CovU, forms[i].Raw = nil, nil, nil
	}
	data, err := json.MarshalIndent(forms, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// startLoopbackServe runs a protocol server in-process and returns a
// connected Remote.
func startLoopbackServe(t *testing.T, workers int) *Remote {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go Serve(ctx, ln, workers, nil)
	r, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := request{ID: 7, Method: "funcs", System: "minidb"}
	if err := writeFrame(&buf, &in); err != nil {
		t.Fatal(err)
	}
	payload, err := readRawFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var out request
	if err := json.Unmarshal(payload, &out); err != nil || out != in {
		t.Fatalf("frame round trip mangled the request: %+v (%v)", out, err)
	}
	// A frame claiming an absurd length is rejected before allocation.
	bad := []byte{0xff, 0xff, 0xff, 0xff, 0}
	if _, err := readRawFrame(bytes.NewReader(bad)); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

// TestBackendEquivalence is the executor equivalence property: for the
// same system, scenarios and seed, the local, pool and loopback-remote
// backends must produce byte-identical outcome sequences — coverage
// blocks, injections and worker-computed failure signatures included.
// This is the contract that lets the fleet route batches by cost alone.
func TestBackendEquivalence(t *testing.T) {
	scens := testScenarios(t)
	pool, err := NewPool(2)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	remote := startLoopbackServe(t, 2)
	backends := []Executor{NewLocal(4), pool, remote}

	for _, seed := range []int64{0, 7, 42} {
		var want []byte
		for _, e := range backends {
			b := &Batch{System: "minidb", Seed: seed, Coverage: true, Scenarios: scens}
			outs, err := e.Run(context.Background(), b)
			if err != nil {
				t.Fatalf("%s seed %d: %v", e.Info().Name, seed, err)
			}
			if len(outs) != len(scens) {
				t.Fatalf("%s seed %d: %d outcomes for %d scenarios", e.Info().Name, seed, len(outs), len(scens))
			}
			got := marshalOutcomes(t, outs)
			if want == nil {
				// The coverage half of the property must not hold
				// vacuously: the reference batch covers blocks.
				covered := 0
				for _, o := range outs {
					covered += len(o.BlockIDs())
				}
				if covered == 0 {
					t.Fatalf("seed %d: local coverage batch covered no blocks", seed)
				}
				want = got
				continue
			}
			if !bytes.Equal(want, got) {
				t.Fatalf("%s seed %d: outcome sequence diverges from local:\nlocal: %s\ngot:   %s",
					e.Info().Name, seed, want, got)
			}
		}
	}
}

// TestPoolWorkerCrashRespawn: killing a pool worker between batches
// must not lose work — the dead worker's slice is retried and the pool
// respawns back to strength.
func TestPoolWorkerCrashRespawn(t *testing.T) {
	pool, err := NewPool(2)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	scens := testScenarios(t)

	first, err := pool.Run(context.Background(), &Batch{System: "minidb", Scenarios: scens})
	if err != nil || len(first) != len(scens) {
		t.Fatalf("healthy pool run: %d outcomes, err %v", len(first), err)
	}

	pool.worker(0).liveConn().(*procConn).cmd.Process.Kill()

	second, err := pool.Run(context.Background(), &Batch{System: "minidb", Scenarios: scens})
	if err != nil || len(second) != len(scens) {
		t.Fatalf("run across a killed worker: %d outcomes, err %v", len(second), err)
	}
	if pool.worker(0).liveConn() == nil {
		t.Fatal("killed worker not respawned")
	}
	if !bytes.Equal(marshalOutcomes(t, first), marshalOutcomes(t, second)) {
		t.Fatal("outcomes diverged across a worker crash")
	}
}

// spawnServeWorker starts a real `serve` worker subprocess (this test
// binary re-executed with EnvServe) and returns its address and a kill
// function.
func spawnServeWorker(t *testing.T) (addr string, kill func()) {
	t.Helper()
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := osexec.Command(self)
	cmd.Env = append(os.Environ(), EnvServe+"=127.0.0.1:0", EnvWorkerJobs+"=2")
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	line, err := bufio.NewReader(out).ReadString('\n')
	if err != nil {
		cmd.Process.Kill()
		t.Fatalf("serve worker said %q: %v", line, err)
	}
	addr = strings.TrimSpace(strings.TrimPrefix(line, "listening "))
	killed := false
	kill = func() {
		if !killed {
			killed = true
			cmd.Process.Kill()
			cmd.Wait()
		}
	}
	t.Cleanup(kill)
	return addr, kill
}

// TestFleetRequeuesKilledRemote is the requeue contract: a batch
// dispatched to a remote worker that dies is requeued on the surviving
// backends, so every run still completes and none is lost.
func TestFleetRequeuesKilledRemote(t *testing.T) {
	addr, kill := spawnServeWorker(t)
	remote, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	fleet := NewFleet(NewLocal(2), remote)
	defer fleet.Close()
	scens := testScenarios(t)

	// Reference result from an all-local fleet.
	wantOuts, err := NewFleet(NewLocal(2)).Run(context.Background(), &Batch{System: "minidb", Coverage: true, Scenarios: scens})
	if err != nil {
		t.Fatal(err)
	}

	// Kill the worker under the fleet's feet: the remote's first chunk
	// fails with BackendError, the fleet marks it dead and requeues the
	// chunk locally.
	kill()
	outs, err := fleet.Run(context.Background(), &Batch{System: "minidb", Coverage: true, Scenarios: scens})
	if err != nil {
		t.Fatalf("fleet with killed remote: %v", err)
	}
	for i, o := range outs {
		if o == nil {
			t.Fatalf("run %d lost after worker death", i)
		}
	}
	if !bytes.Equal(marshalOutcomes(t, wantOuts), marshalOutcomes(t, outs)) {
		t.Fatal("requeued outcomes diverge from all-local outcomes")
	}
	if got := len(fleet.live(nil)); got != 1 {
		t.Fatalf("dead remote still listed live: %d live backends", got)
	}
}

// TestFleetCancellationSparse: cancelling mid-batch returns the
// completed outcomes with ctx.Err(); unexecuted indexes stay nil so
// the caller can requeue exactly those.
func TestFleetCancellationSparse(t *testing.T) {
	fleet := NewFleet(NewLocal(1))
	defer fleet.Close()
	scens := testScenarios(t)
	ctx, cancel := context.WithCancel(context.Background())
	var n atomic.Int32
	b := &Batch{System: "minidb", Scenarios: scens, Observe: func(i int, o *Outcome) {
		if n.Add(1) == 2 {
			cancel()
		}
	}}
	outs, err := fleet.Run(ctx, b)
	if err != context.Canceled {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	completed := 0
	for _, o := range outs {
		if o != nil {
			completed++
		}
	}
	if completed == 0 || completed == len(scens) {
		t.Fatalf("cancellation completed %d of %d runs; want a partial batch", completed, len(scens))
	}
}

// TestRemoteDrainGraceTimeout: a cancelled Run against a wedged worker
// gives up after the drain grace (shortened here from the 30s
// production value) — the connection is force-closed and the batch
// comes back as BackendError for the scheduler to requeue.
func TestRemoteDrainGraceTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// A worker that answers hello and then wedges: it swallows the run
	// request and never responds, the shape of a hung or livelocked
	// worker process (a killed one fails fast with a transport error).
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		payload, err := readRawFrame(conn)
		var req request
		if err != nil || json.Unmarshal(payload, &req) != nil || req.Method != "hello" {
			return
		}
		hello := &response{ID: req.ID, Hello: &helloInfo{Proto: protoVersion, Capacity: 1, Systems: []string{"minidb"}}}
		if err := writeFrame(conn, hello); err != nil {
			return
		}
		io.Copy(io.Discard, conn) // swallow the run request, never answer
	}()

	r, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.drainGrace = 50 * time.Millisecond

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: Run goes straight to the drain wait
	start := time.Now()
	outs, err := r.Run(ctx, &Batch{System: "minidb", Scenarios: testScenarios(t)})
	elapsed := time.Since(start)
	if outs != nil {
		t.Fatalf("wedged worker returned outcomes: %v", outs)
	}
	if !IsBackendError(err) || !strings.Contains(err.Error(), "drain timed out") {
		t.Fatalf("want drain-timeout BackendError, got %v", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("drain grace not honored: gave up after %v", elapsed)
	}
}

// TestFleetSplitSharesByCost: once a backend's observed speed dwarfs
// the others', it receives the bulk of a batch, and the batch head
// stays on the local (lowest-latency) backend.
func TestFleetSplitSharesByCost(t *testing.T) {
	local := NewLocal(1)
	remote := startLoopbackServe(t, 4)
	fleet := NewFleet(remote, NewLocal(1), local) // order scrambled on purpose
	if fleet.Executors()[0].Kind != KindLocal {
		t.Fatalf("fleet not ordered by latency class: %+v", fleet.Executors())
	}
	fleet.observeSpeed("sys", local.Info(), 100, time.Second)           // 100 runs/s
	fleet.observeSpeed("sys", remote.Info(), 100, 100*time.Millisecond) // 1000 runs/s
	wave := fleet.split("sys", []Executor{local, remote}, chunk{off: 0, end: 100})
	if len(wave) != 2 || wave[0].c.off != 0 || wave[0].e != local || wave[1].e != Executor(remote) {
		t.Fatalf("unexpected split: %+v", wave)
	}
	localShare := wave[0].c.end - wave[0].c.off
	remoteShare := wave[1].c.end - wave[1].c.off
	if localShare >= remoteShare {
		t.Fatalf("cost model did not route the big batch to the fast backend: local %d, remote %d", localShare, remoteShare)
	}

	// A backend whose share rounds to zero is skipped — its chunk must
	// stay with the backend it was sized for, not shift positionally.
	fleet.observeSpeed("sys", local.Info(), 1, 10*time.Second)            // 0.1 runs/s
	fleet.observeSpeed("sys", remote.Info(), 10000, 100*time.Millisecond) // ~40k runs/s EWMA
	wave = fleet.split("sys", []Executor{local, remote}, chunk{off: 0, end: 32})
	total := 0
	for _, d := range wave {
		if d.c.end-d.c.off >= 31 && d.e != Executor(remote) {
			t.Fatalf("bulk chunk routed to %s, want the fast remote: %+v", d.e.Info().Name, wave)
		}
		total += d.c.end - d.c.off
	}
	if total != 32 {
		t.Fatalf("split lost runs: %d of 32 assigned", total)
	}
}

// TestCostModelEWMA: gain observations fold in as an EWMA and seed/
// snapshot round-trips preserve the model.
func TestCostModelEWMA(t *testing.T) {
	f := NewFleet(NewLocal(1))
	if g := f.GainEstimate("sys", 0.5); g != 0.5 {
		t.Fatalf("prior not honored before observations: %v", g)
	}
	f.ObserveGain("sys", 10, 5) // 0.5 gain/run
	f.ObserveGain("sys", 10, 0)
	got := f.GainEstimate("sys", 99)
	want := (1-ewmaAlpha)*0.5 + ewmaAlpha*0
	if diff := got - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("gain EWMA: got %v want %v", got, want)
	}
	snap := f.Cost("sys")
	f2 := NewFleet(NewLocal(1))
	f2.SeedCost("sys", snap)
	if g := f2.GainEstimate("sys", 99); g != got {
		t.Fatalf("seeded model lost the EWMA: %v vs %v", g, got)
	}
}
