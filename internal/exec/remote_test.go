package exec

import (
	"bytes"
	"context"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"lfi/internal/coverage"
	"lfi/internal/scenario"
	"lfi/internal/system"
)

// fakeWorker connects a Remote, named remote(name), to an in-process
// worker that answers the hello with hello (at this build's protocol)
// and every run request by running the batch on a Local and passing
// its outcomes through edit (nil: none) before it encodes them. ran
// reports the systems of the batches it received, in order.
func fakeWorker(t *testing.T, name string, hello helloInfo, edit func([]*Outcome)) (r *Remote, ran func() []string) {
	t.Helper()
	var (
		mu      sync.Mutex
		systems []string
	)
	client, server := net.Pipe()
	go func() {
		defer server.Close()
		if _, err := readRawFrame(server); err != nil {
			return
		}
		hello.Proto = protoVersion
		if writeFrame(server, &response{ID: 1, Hello: &hello}) != nil {
			return
		}
		local := NewLocal(1)
		for {
			payload, err := readRawFrame(server)
			if err != nil || !isBinaryFrame(payload, frameRunReq) {
				return
			}
			id, b, err := decodeRunRequest(payload)
			if err != nil {
				return
			}
			mu.Lock()
			systems = append(systems, b.System)
			mu.Unlock()
			outs, err := local.Run(context.Background(), b)
			errStr := ""
			if err != nil {
				errStr = err.Error()
			}
			if edit != nil {
				edit(outs)
			}
			if writeRawFrame(server, encodeRunResponse(id, errStr, outs)) != nil {
				return
			}
		}
	}()
	r, err := newRemote(name, client)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r, func() []string {
		mu.Lock()
		defer mu.Unlock()
		return slices.Clone(systems)
	}
}

// thisBuildsHello is the hello a worker of this very build sends.
func thisBuildsHello() helloInfo {
	return helloInfo{Capacity: 1, Systems: system.Names(), Images: workerImages(), Universes: workerUniverses()}
}

// TestFleetRoutesByBlockUniverse: a worker that advertises minidb's
// image but a block universe with one block more runs another build of
// minidb, since its coverage bits would name other blocks. The fleet
// sends it no minidb batch and fails naming the worker and both
// universes; Remote refuses an image-less minidb coverage batch too.
// minidns, whose universe matches, still runs there.
func TestFleetRoutesByBlockUniverse(t *testing.T) {
	d, ok := system.Lookup("minidb")
	if !ok {
		t.Fatal("minidb not registered")
	}
	blocks := []coverage.Block{{ID: "rec.only_in_their_build", LOC: 1}}
	for _, id := range d.Blocks.IDs() {
		blocks = append(blocks, coverage.Block{ID: id, LOC: 1})
	}
	hello := thisBuildsHello()
	theirs, ours := universeHash(coverage.NewIndex(blocks)), hello.Universes["minidb"]
	hello.Universes["minidb"] = theirs
	r, ran := fakeWorker(t, "extra-block", hello, nil)
	fleet := NewFleet(r)
	scens := testScenarios(t)

	_, err := fleet.Run(context.Background(), &Batch{System: "minidb", Coverage: true, Image: hello.Images["minidb"], Scenarios: scens})
	if err == nil {
		t.Fatal("minidb batch ran on a worker of another block universe")
	}
	for _, want := range []string{r.Info().Name, theirs, ours} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("fleet error %q does not name %q", err, want)
		}
	}
	if _, err := r.Run(context.Background(), &Batch{System: "minidb", Coverage: true, Scenarios: scens}); err == nil || IsBackendError(err) {
		t.Errorf("image-less minidb coverage batch: %v, want a refusal", err)
	}
	if got := ran(); len(got) != 0 {
		t.Fatalf("worker received batches of %v", got)
	}

	b := &Batch{System: "minidns", Coverage: true, Image: hello.Images["minidns"], Scenarios: scens}
	outs, err := fleet.Run(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewLocal(1).Run(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshalOutcomes(t, outs), marshalOutcomes(t, want)) {
		t.Fatal("minidns outcomes diverge from a local run")
	}
	if got := ran(); !slices.Equal(got, []string{"minidns"}) {
		t.Fatalf("worker received batches of %v, want one of minidns", got)
	}
}

// TestFleetRequeuesCoverageOutsideUniverse: a worker whose response
// names a block past the universe, in a word more than it has or in a
// bit past its end, fails the batch with BackendError and loses the
// connection, like a worker that sent an undecodable frame; a fleet
// requeues the batch on its other backends and its outcomes match a
// local run's.
func TestFleetRequeuesCoverageOutsideUniverse(t *testing.T) {
	d, ok := system.Lookup("minidb")
	if !ok {
		t.Fatal("minidb not registered")
	}
	size := d.Blocks.Len()
	scens := testScenarios(t)
	b := &Batch{System: "minidb", Coverage: true, Scenarios: scens}
	want, err := NewLocal(1).Run(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	edits := map[string]func(outs []*Outcome){
		"extra word": func(outs []*Outcome) { outs[0].Cov = append(outs[0].Cov, 1) },
	}
	if size%64 != 0 {
		edits["bit past the end"] = func(outs []*Outcome) { outs[0].Cov.Set(size) }
	}
	for name, edit := range edits {
		t.Run(name, func(t *testing.T) {
			r, _ := fakeWorker(t, "stray-bits", thisBuildsHello(), edit)
			outs, err := r.Run(context.Background(), b)
			if !IsBackendError(err) || outs != nil {
				t.Fatalf("run: %d outcomes, %v; want BackendError", len(outs), err)
			}
			if _, err := r.Run(context.Background(), b); !IsBackendError(err) {
				t.Fatalf("run after the refused response: %v, want BackendError", err)
			}

			r, ran := fakeWorker(t, "stray-bits", thisBuildsHello(), edit)
			fleet := NewFleet(NewLocal(1), r)
			outs, err = fleet.Run(context.Background(), b)
			if err != nil {
				t.Fatal(err)
			}
			if len(ran()) == 0 {
				t.Fatal("the fleet sent the worker nothing")
			}
			if !bytes.Equal(marshalOutcomes(t, outs), marshalOutcomes(t, want)) {
				t.Fatal("requeued outcomes diverge from a local run")
			}
		})
	}
}

// TestRemoteCancelFastWithoutGrace pins the cancel contract for both
// backends built on the Remote client, a loopback `lfi serve` worker
// and a fleet of subprocess pool members: cancelling a Run against live
// workers returns the completed prefix promptly — the cancel frame stops each worker
// after its in-flight run — with the 30s drain grace untouched (it
// remains a fallback for wedged workers, never the steady-state cost
// of a Ctrl-C). Completed runs are not lost: the prefix is
// byte-identical to a local run of the same batch.
func TestRemoteCancelFastWithoutGrace(t *testing.T) {
	scens := testScenarios(t)
	var big []*scenario.Scenario
	for len(big) < 2000 {
		big = append(big, scens...)
	}
	for _, tc := range []struct {
		name    string
		backend func(t *testing.T) func(context.Context, *Batch) ([]*Outcome, error)
	}{
		{"remote", func(t *testing.T) func(context.Context, *Batch) ([]*Outcome, error) {
			return startLoopbackServe(t, 1).Run
		}},
		{"pool", func(t *testing.T) func(context.Context, *Batch) ([]*Outcome, error) {
			members, err := NewPool(2)
			if err != nil {
				t.Fatal(err)
			}
			pool := NewFleet(members...)
			t.Cleanup(func() { pool.Close() })
			return pool.Run
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := tc.backend(t)
			var outs []*Outcome
			var err error
			var elapsed time.Duration
			// A cancel that lands before the first run completes proves
			// nothing (slow or instrumented builds start up slowly), so
			// back off and cancel later; the batch runs for seconds
			// under the race detector, so later still interrupts it.
			// A batch that completes before the cancel takes effect
			// proves nothing either (fast builds), so double it and try
			// again.
			for delay := 20 * time.Millisecond; ; {
				ctx, cancel := context.WithCancel(context.Background())
				timer := time.AfterFunc(delay, cancel)
				start := time.Now()
				outs, err = run(ctx, &Batch{System: "minidb", Coverage: true, Scenarios: big})
				outs = completed(outs)
				elapsed = time.Since(start)
				timer.Stop()
				cancel()
				if len(outs) == len(big) && len(big) < 1<<16 {
					big = append(big, big...)
					continue
				}
				if len(outs) > 0 || delay > time.Second {
					break
				}
				delay *= 3
			}
			if err != context.Canceled {
				t.Fatalf("cancelled run: err %v (completed %d), want context.Canceled — batch too fast for the cancel?", err, len(outs))
			}
			if elapsed > 10*time.Second {
				t.Fatalf("cancel took %v: the run leaned on the 30s drain grace instead of the cancel frame", elapsed)
			}
			completed := len(outs)
			if completed == 0 || completed >= len(big) {
				t.Fatalf("cancel completed %d of %d runs; want a partial prefix", completed, len(big))
			}
			// Zero completed runs lost or corrupted: the prefix matches
			// a local run of the identical batch.
			want, err := NewLocal(1).Run(context.Background(), &Batch{System: "minidb", Coverage: true, Scenarios: big[:completed]})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(marshalOutcomes(t, outs), marshalOutcomes(t, want)) {
				t.Fatal("cancelled prefix diverges from a local run of the same scenarios")
			}
		})
	}
}

// TestRemotePipelinedConcurrentBatches: a connection carries
// several batches at once (the scheduler keeps Pipeline() in flight);
// concurrent Runs on one Remote must all complete and stay
// byte-identical to the local backend per batch.
func TestRemotePipelinedConcurrentBatches(t *testing.T) {
	r := startLoopbackServe(t, 2)
	if got := r.Pipeline(); got != defaultPipeline {
		t.Fatalf("Pipeline() = %d, want %d", got, defaultPipeline)
	}
	scens := testScenarios(t)
	got := make([][]*Outcome, defaultPipeline)
	errs := make([]error, defaultPipeline)
	var wg sync.WaitGroup
	for seed := range got {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			got[seed], errs[seed] = r.Run(context.Background(), &Batch{System: "minidb", Seed: int64(seed), Coverage: true, Scenarios: scens})
		}(seed)
	}
	wg.Wait()
	local := NewLocal(2)
	for seed := range got {
		if errs[seed] != nil {
			t.Fatalf("seed %d: %v", seed, errs[seed])
		}
		want, err := local.Run(context.Background(), &Batch{System: "minidb", Seed: int64(seed), Coverage: true, Scenarios: scens})
		if err != nil {
			t.Fatalf("seed %d local: %v", seed, err)
		}
		if !bytes.Equal(marshalOutcomes(t, got[seed]), marshalOutcomes(t, want)) {
			t.Errorf("seed %d: pipelined outcomes diverge from local", seed)
		}
	}
}
