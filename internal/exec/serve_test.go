package exec

import (
	"bytes"
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"lfi/internal/scenario"
	"lfi/internal/system"
)

// TestServeConcurrentShortBatchFirst: on a fresh connection a worker
// of width 2 runs two pipelined coverage batches side by side, and the
// second, one test long, finishes first and answers first. Both
// responses decode in arrival order, each in full.
func TestServeConcurrentShortBatchFirst(t *testing.T) {
	d, ok := system.Lookup("minidb")
	if !ok {
		t.Fatal("minidb not registered")
	}
	scens := testScenarios(t)
	big := scens
	for attempt := 0; ; attempt++ {
		for len(big) < 200<<attempt {
			big = append(big, big...)
		}
		client, server := net.Pipe()
		done := make(chan error, 1)
		go func() { done <- serveConn(context.Background(), server, 2, nil) }()
		batches := map[uint64]*Batch{
			1: {System: "minidb", Coverage: true, Scenarios: big},
			2: {System: "minidb", Coverage: true, Scenarios: scens[:1]},
		}
		for id := uint64(1); id <= 2; id++ {
			if err := writeRawFrame(client, appendRunRequest(nil, id, batches[id])); err != nil {
				t.Fatal(err)
			}
		}
		var frames [][]byte
		for len(frames) < 2 {
			payload, err := readRawFrame(client)
			if err != nil {
				t.Fatal(err)
			}
			frames = append(frames, payload)
		}
		client.Close()
		<-done
		if first, _ := frameID(frames[0]); first != 2 {
			if attempt < 4 {
				continue // the long batch won the race; lengthen it
			}
			t.Fatalf("the %d-test batch answered before the 1-test batch %d times", len(big), attempt+1)
		}
		for i, payload := range frames {
			var resp response
			if err := decodeRunResponse(payload, &resp, d.Blocks); err != nil {
				t.Fatalf("response %d: %v", i, err)
			}
			b := batches[resp.ID]
			if resp.Error != "" || len(resp.Outcomes) != len(b.Scenarios) {
				t.Fatalf("response %d: %d of %d outcomes, error %q", resp.ID, len(resp.Outcomes), len(b.Scenarios), resp.Error)
			}
		}
		return
	}
}

// TestServeConcurrentCancelOne: cancelling one of two batches a worker
// runs side by side stops only that one. It answers "cancelled" with
// its completed prefix, and the other completes in full; both match a
// local run of the same scenarios.
func TestServeConcurrentCancelOne(t *testing.T) {
	r := startLoopbackServe(t, 2)
	scens := testScenarios(t)
	var big []*scenario.Scenario
	for len(big) < 400 {
		big = append(big, scens...)
	}
	local := NewLocal(1)
	check := func(what string, outs []*Outcome, seed int64) {
		t.Helper()
		want, err := local.Run(context.Background(), &Batch{System: "minidb", Seed: seed, Coverage: true, Scenarios: big[:len(outs)]})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(marshalOutcomes(t, outs), marshalOutcomes(t, want)) {
			t.Fatalf("%s diverges from a local run of the same scenarios", what)
		}
	}
	// As in TestRemoteCancelFastWithoutGrace: a cancel before the first
	// run completes, or after the batch ran out, proves nothing, so
	// cancel later or lengthen the batches and try again.
	for delay := 20 * time.Millisecond; ; {
		ctx, cancel := context.WithCancel(context.Background())
		var (
			wg         sync.WaitGroup
			kept       []*Outcome
			keptErr    error
			stopped    []*Outcome
			stoppedErr error
		)
		wg.Add(2)
		go func() {
			defer wg.Done()
			stopped, stoppedErr = r.Run(ctx, &Batch{System: "minidb", Seed: 1, Coverage: true, Scenarios: big})
		}()
		go func() {
			defer wg.Done()
			kept, keptErr = r.Run(context.Background(), &Batch{System: "minidb", Seed: 2, Coverage: true, Scenarios: big})
		}()
		timer := time.AfterFunc(delay, cancel)
		wg.Wait()
		timer.Stop()
		cancel()
		if keptErr != nil || len(kept) != len(big) {
			t.Fatalf("the batch left running: %d of %d outcomes, %v", len(kept), len(big), keptErr)
		}
		if len(stopped) == len(big) && len(big) < 1<<15 {
			big = append(big, big...)
			continue
		}
		if len(stopped) == 0 && delay < time.Second {
			delay *= 3
			continue
		}
		if stoppedErr != context.Canceled {
			t.Fatalf("cancelled batch: err %v, want context.Canceled", stoppedErr)
		}
		if len(stopped) == 0 || len(stopped) >= len(big) {
			t.Fatalf("cancelled batch completed %d of %d runs; want a partial prefix", len(stopped), len(big))
		}
		check("the cancelled prefix", stopped, 1)
		check("the batch left running", kept, 2)
		return
	}
}
