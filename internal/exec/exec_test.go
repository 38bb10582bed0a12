package exec

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	osexec "os/exec"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"lfi/internal/scenario"

	// The backends resolve targets through the system registry.
	_ "lfi/internal/system/all"
)

// serveEnv, set to a TCP listen address in the environment of a copy
// of this test binary, makes that copy a serve worker of width 2 on the
// address instead of running the tests (spawnServeWorker).
const serveEnv = "LFI_EXEC_TEST_SERVE"

// TestMain makes this test binary pool- and serve-capable: a copy
// re-executed with EnvWorker set becomes a pool worker (the same hook
// cmd/lfi installs), one with serveEnv set a serve worker.
func TestMain(m *testing.M) {
	MaybeWorker()
	if addr := os.Getenv(serveEnv); addr != "" {
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "serve worker:", err)
			os.Exit(1)
		}
		fmt.Printf("listening %s\n", ln.Addr())
		if err := Serve(context.Background(), ln, ServeOptions{Workers: 2}); err != nil {
			fmt.Fprintln(os.Stderr, "serve worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
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
	go Serve(ctx, ln, ServeOptions{Workers: workers})
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

// completed returns the contiguous completed prefix of a Fleet.Run
// result, which aligns outcomes with the batch, nil where a run never
// executed.
func completed(outs []*Outcome) []*Outcome {
	for i, o := range outs {
		if o == nil {
			return outs[:i]
		}
	}
	return outs
}

// TestBackendEquivalence is the executor equivalence property: for the
// same system, scenarios and seed, the local backend, a fleet of pool
// members and a loopback remote must produce byte-identical outcome
// sequences — coverage blocks, injections and worker-computed failure
// signatures included. This is the contract that lets the fleet route
// batches by speed alone.
func TestBackendEquivalence(t *testing.T) {
	scens := testScenarios(t)
	members, err := NewPool(2)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewFleet(members...)
	defer pool.Close()
	remote := startLoopbackServe(t, 2)
	backends := []struct {
		name string
		run  func(context.Context, *Batch) ([]*Outcome, error)
	}{
		{"local", NewLocal(4).Run},
		{"pool", pool.Run},
		{"remote", remote.Run},
	}

	for _, seed := range []int64{0, 7, 42} {
		var want []byte
		for _, e := range backends {
			b := &Batch{System: "minidb", Seed: seed, Coverage: true, Scenarios: scens}
			outs, err := e.run(context.Background(), b)
			if err != nil {
				t.Fatalf("%s seed %d: %v", e.name, seed, err)
			}
			if outs = completed(outs); len(outs) != len(scens) {
				t.Fatalf("%s seed %d: %d outcomes for %d scenarios", e.name, seed, len(outs), len(scens))
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
					e.name, seed, want, got)
			}
		}
	}
}

// TestFleetRoutesByImage: a batch runs only where its image of the
// system runs. A remote worker qualifies when it advertises exactly
// Batch.Image; a pool member re-execs this binary and qualifies for
// every batch, as the local backend does (an `lfi explore -patch` batch
// carries an image no worker advertises). With no backend qualifying,
// Run fails naming each worker, the image it advertised and the
// batch's.
func TestFleetRoutesByImage(t *testing.T) {
	scens := testScenarios(t)[:2]
	pool, err := NewPool(1)
	if err != nil {
		t.Fatal(err)
	}
	defer pool[0].Close()
	remote := startLoopbackServe(t, 1)
	ours := remote.ImageVersion("minidb")
	run := func(f *Fleet, image string) error {
		outs, err := f.Run(context.Background(), &Batch{System: "minidb", Image: image, Scenarios: scens})
		if err == nil && len(completed(outs)) != len(scens) {
			t.Fatalf("image %q: %d outcomes for %d scenarios", image, len(completed(outs)), len(scens))
		}
		return err
	}
	for _, image := range []string{"", ours} {
		if err := run(NewFleet(remote), image); err != nil {
			t.Fatalf("remote with image %q: %v", image, err)
		}
	}
	if err := run(NewFleet(pool...), "minidb@other"); err != nil {
		t.Fatalf("pool with another image: %v", err)
	}
	err = run(NewFleet(remote), "minidb@other")
	if err == nil || IsBackendError(err) {
		t.Fatalf("remote with another image: err %v, want a non-backend error", err)
	}
	for _, want := range []string{remote.Info().Name, "minidb@other", fmt.Sprintf("%q", ours)} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
}

// poolMember returns the fleet's current member in the given slot of a
// two-worker pool.
func poolMember(t *testing.T, f *Fleet, slot int) *Remote {
	t.Helper()
	name := fmt.Sprintf("pool(2)[%d]", slot)
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, e := range f.execs {
		if e.Info().Name == name {
			return e.(*Remote)
		}
	}
	t.Fatalf("fleet has no member %s", name)
	return nil
}

// TestPoolWorkerCrashRespawn: killing pool workers — between batches,
// mid-batch, or mid-batch in a fleet that mixes the pool members with a
// local backend — must not lose work: the dead member's slices are
// requeued across the live members, the fleet respawns the slot
// exactly once per failure wave, and outcomes stay byte-identical to
// the local backend's. A slot whose respawn fails is retired, and a
// fleet of pool members that cannot respawn at all fails with
// BackendError instead of hanging or spawning without bound.
func TestPoolWorkerCrashRespawn(t *testing.T) {
	scens := testScenarios(t)
	var big []*scenario.Scenario
	for len(big) < 400 {
		big = append(big, scens...)
	}
	want, err := NewLocal(2).Run(context.Background(), &Batch{System: "minidb", Scenarios: big})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		mixed    bool // NewFleet(NewLocal(1), pool members...)
		midBatch bool // kill while the batch is in flight on the victims
		kill     int  // slots killed, from slot 0
		refuse   int  // slots, from slot 0, whose respawn function fails
	}{
		{name: "between-batches", kill: 1},
		{name: "mid-batch", midBatch: true, kill: 1},
		{name: "mixed-mid-batch", mixed: true, midBatch: true, kill: 1},
		{name: "respawn-fails", kill: 1, refuse: 1},
		{name: "unrespawnable", kill: 2, refuse: 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pool, err := NewPool(2)
			if err != nil {
				t.Fatal(err)
			}
			if tc.mixed {
				pool = append([]Executor{NewLocal(1)}, pool...)
			}
			f := NewFleet(pool...)
			defer f.Close()
			var respawns atomic.Int32
			var victims []*Remote
			for slot := 0; slot < 2; slot++ {
				m := poolMember(t, f, slot)
				spawn, refuse := m.respawn, slot < tc.refuse
				m.respawn = func() (*Remote, error) {
					respawns.Add(1)
					if refuse {
						return nil, errors.New("spawn refused")
					}
					return spawn()
				}
				if slot < tc.kill {
					victims = append(victims, m)
				}
			}
			kill := func() {
				for _, m := range victims {
					m.liveConn().(*procConn).cmd.Process.Kill()
				}
			}
			first, err := f.Run(context.Background(), &Batch{System: "minidb", Scenarios: big})
			if err != nil || len(completed(first)) != len(big) {
				t.Fatalf("healthy pool run: %d outcomes, err %v", len(first), err)
			}
			// Mid-batch, the victims are frozen before the batch is
			// dispatched and killed once it is in flight on them, so
			// none of their slices can complete first.
			if tc.midBatch {
				for _, m := range victims {
					m.liveConn().(*procConn).cmd.Process.Signal(syscall.SIGSTOP)
				}
			} else {
				kill()
			}
			var second []*Outcome
			done := make(chan struct{})
			start := time.Now()
			go func() {
				defer close(done)
				second, err = f.Run(context.Background(), &Batch{System: "minidb", Scenarios: big})
			}()
			if tc.midBatch {
				for _, m := range victims {
					for inFlight := 0; inFlight == 0; time.Sleep(time.Millisecond) {
						if time.Since(start) > 10*time.Second {
							t.Fatalf("batch never reached %s", m.Info().Name)
						}
						m.mu.Lock()
						inFlight = len(m.pending)
						m.mu.Unlock()
					}
				}
				kill()
			}
			<-done
			if tc.refuse == 2 {
				if !IsBackendError(err) {
					t.Fatalf("unrespawnable pool: err %v, want BackendError", err)
				}
				if n := respawns.Load(); n > maxAttempts {
					t.Fatalf("unrespawnable pool tried %d respawns, want at most %d", n, maxAttempts)
				}
				if elapsed := time.Since(start); elapsed > 30*time.Second {
					t.Fatalf("unrespawnable pool took %v to fail", elapsed)
				}
				return
			}
			if err != nil || len(completed(second)) != len(big) {
				t.Fatalf("run across a killed worker: %d outcomes, err %v", len(completed(second)), err)
			}
			if n := respawns.Load(); n != 1 {
				t.Fatalf("one failure wave caused %d respawns, want 1", n)
			}
			members, _ := f.live(&Batch{})
			var live []string
			for _, m := range members {
				if m.Info().Kind == KindPool {
					live = append(live, m.Info().Name)
				}
			}
			if tc.refuse == 0 {
				if poolMember(t, f, 0).liveConn() == nil || len(live) != 2 {
					t.Fatalf("killed worker not respawned: live pool members %v", live)
				}
				if !slices.Contains(live, "pool(2)[0]") || !slices.Contains(live, "pool(2)[1]") {
					t.Fatalf("live pool members %v, want pool(2)[0] and pool(2)[1]", live)
				}
			} else if len(live) != 1 {
				t.Fatalf("unrespawnable member not retired: live pool members %v", live)
			}
			if !bytes.Equal(marshalOutcomes(t, want), marshalOutcomes(t, completed(first))) ||
				!bytes.Equal(marshalOutcomes(t, want), marshalOutcomes(t, completed(second))) {
				t.Fatal("outcomes diverged across a worker crash")
			}
		})
	}
}

// spawnServeWorker starts a real `serve` worker subprocess (this test
// binary re-executed with serveEnv) and returns its address and a kill
// function.
func spawnServeWorker(t *testing.T) (addr string, kill func()) {
	t.Helper()
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := osexec.Command(self)
	cmd.Env = append(os.Environ(), serveEnv+"=127.0.0.1:0")
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
	if got, _ := fleet.live(&Batch{}); len(got) != 1 {
		t.Fatalf("dead remote still listed live: %d live backends", len(got))
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

// TestLocalWidthSharedAcrossRuns: a Local's width bounds the tests
// running at once across concurrent Runs. With every slot taken no
// test starts, and a cancel while waiting returns no outcome and the
// context's error; two concurrent Runs on a one-wide Local both return
// the outcomes of a Run alone.
func TestLocalWidthSharedAcrossRuns(t *testing.T) {
	l := NewLocal(1)
	b := &Batch{System: "minidb", Seed: 1, Coverage: true, Scenarios: testScenarios(t)[:4]}
	alone, err := l.Run(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	want := marshalOutcomes(t, alone)

	l.slots <- struct{}{} // every slot taken
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	var outs []*Outcome
	go func() {
		defer close(done)
		outs, err = l.Run(ctx, b)
	}()
	select {
	case <-done:
		t.Fatal("Run returned while every slot was taken")
	case <-time.After(50 * time.Millisecond):
	}
	cancel()
	<-done
	if len(outs) != 0 || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled while waiting for a slot: %d outcomes, err %v; want 0, context.Canceled", len(outs), err)
	}
	<-l.slots

	var got [2][]*Outcome
	var errs [2]error
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = l.Run(context.Background(), b)
		}(i)
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !bytes.Equal(marshalOutcomes(t, got[i]), want) {
			t.Fatalf("concurrent Run %d differs from a Run alone", i)
		}
	}
}
