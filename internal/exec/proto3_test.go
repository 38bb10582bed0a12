package exec

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"lfi/internal/scenario"
)

// TestRemoteCancelFastWithoutGrace pins the cancel contract for both
// backends built on the Remote client, a loopback `lfi serve` worker
// and a subprocess pool: cancelling a Run against live workers returns
// the completed prefix promptly — the cancel frame stops each worker
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
		backend func(t *testing.T) Executor
	}{
		{"remote", func(t *testing.T) Executor { return startLoopbackServe(t, 1) }},
		{"pool", func(t *testing.T) Executor {
			pool, err := NewPool(2)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { pool.Close() })
			return pool
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := tc.backend(t)
			var outs []*Outcome
			var err error
			var elapsed time.Duration
			// A cancel that lands before the first run completes proves
			// nothing (slow or instrumented builds start up slowly), so
			// back off and cancel later; the batch runs for seconds
			// under the race detector, so later still interrupts it.
			for delay := 20 * time.Millisecond; ; delay *= 3 {
				ctx, cancel := context.WithCancel(context.Background())
				timer := time.AfterFunc(delay, cancel)
				start := time.Now()
				outs, err = e.Run(ctx, &Batch{System: "minidb", Coverage: true, Scenarios: big})
				elapsed = time.Since(start)
				timer.Stop()
				cancel()
				if len(outs) > 0 || delay > time.Second {
					break
				}
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
