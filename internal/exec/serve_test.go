package exec

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"io"
	"net"
	"runtime"
	"slices"
	"sync"
	"testing"
	"testing/iotest"
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

// TestFleetOneRunRequestPerBatch: a fleet whose one backend is a
// Remote sends each batch as one run request, however long (16 tests
// is the explorer's batch, 40 is longer than any it sends), and the
// outcomes equal a local run's byte for byte.
func TestFleetOneRunRequestPerBatch(t *testing.T) {
	client, server := net.Pipe()
	counters := new(serveCounters)
	done := make(chan error, 1)
	go func() { done <- serveConn(context.Background(), server, 2, counters) }()
	r, err := newRemote("counted", client)
	if err != nil {
		t.Fatal(err)
	}
	f := NewFleet(r)
	defer func() {
		f.Close()
		<-done
	}()
	scens := testScenarios(t)
	local := NewLocal(2)
	for _, n := range []int{16, 40} {
		var batch []*scenario.Scenario
		for len(batch) < n {
			batch = append(batch, scens...)
		}
		b := &Batch{System: "minidb", Seed: int64(n), Coverage: true, Scenarios: batch[:n]}
		before := counters.batches.Load()
		got, err := f.Run(context.Background(), b)
		if err != nil {
			t.Fatalf("%d tests: %v", n, err)
		}
		// serveRun counts a batch before it writes the response.
		if reqs := counters.batches.Load() - before; reqs != 1 {
			t.Errorf("a %d-test batch reached the worker as %d run requests, want 1", n, reqs)
		}
		want, err := local.Run(context.Background(), b)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(marshalOutcomes(t, got), marshalOutcomes(t, want)) {
			t.Errorf("%d tests: fleet outcomes diverge from a local run", n)
		}
	}
}

// writeRecorder forwards writes to w and keeps a copy of each one.
type writeRecorder struct {
	w      io.Writer
	mu     sync.Mutex
	writes [][]byte
}

func (r *writeRecorder) Write(p []byte) (int, error) {
	r.mu.Lock()
	r.writes = append(r.writes, slices.Clone(p))
	r.mu.Unlock()
	return r.w.Write(p)
}

// frameKind names the message one recorded write carries.
func frameKind(t *testing.T, payload []byte) string {
	t.Helper()
	switch {
	case isBinaryFrame(payload, frameRunReq):
		return "run request"
	case isBinaryFrame(payload, frameRunResp):
		return "run response"
	case isBinaryFrame(payload, frameCancel):
		return "cancel"
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(payload, &m); err != nil {
		t.Fatalf("payload %q is neither binary nor JSON: %v", payload, err)
	}
	switch {
	case string(m["method"]) == `"hello"`, m["hello"] != nil:
		return "hello"
	case string(m["method"]) == `"funcs"`, m["funcs"] != nil:
		return "funcs"
	}
	t.Fatalf("unexpected JSON frame %s", payload)
	return ""
}

// TestServeFramesOneWriteEach: every frame either end of a connection
// sends — hello, funcs, run request, run response and cancel — leaves
// in one Write holding the big-endian payload length and the payload.
// readRawFrame then yields the same payloads one byte per read, half a
// buffer per read, two frames in one read, and through a buffered
// reader; an oversized length is refused before the payload is
// allocated.
func TestServeFramesOneWriteEach(t *testing.T) {
	client, server := net.Pipe()
	cw, sw := &writeRecorder{w: client}, &writeRecorder{w: server}
	done := make(chan error, 1)
	go func() {
		done <- serveConn(context.Background(), struct {
			io.Reader
			io.Writer
		}{server, sw}, 2, nil)
	}()
	r, err := newRemote("recorded", struct {
		io.Reader
		io.Writer
		io.Closer
	}{client, cw, client})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.FuncFingerprints("minidb"); err != nil {
		t.Fatal(err)
	}
	scens := testScenarios(t)
	if _, err := r.Run(context.Background(), &Batch{System: "minidb", Coverage: true, Scenarios: scens}); err != nil {
		t.Fatal(err)
	}
	// A Run whose context is already cancelled sends its request and then
	// a cancel, returning ctx.Err(), unless the response wins the race;
	// lengthen and retry.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for big := scens; ; big = append(big, big...) {
		if len(big) > 1<<14 {
			t.Fatal("no cancel frame sent")
		}
		if _, err := r.Run(ctx, &Batch{System: "minidb", Scenarios: big}); err == context.Canceled {
			break
		}
	}
	r.Close()
	<-done

	check := func(side string, rec *writeRecorder, want ...string) []byte {
		var stream []byte
		seen := map[string]bool{}
		for _, w := range rec.writes {
			if len(w) < frameHeader || binary.BigEndian.Uint32(w) != uint32(len(w)-frameHeader) {
				t.Fatalf("%s wrote %d bytes that are not one whole frame: % x", side, len(w), w[:min(len(w), 8)])
			}
			seen[frameKind(t, w[frameHeader:])] = true
			stream = append(stream, w...)
		}
		for _, kind := range want {
			if !seen[kind] {
				t.Errorf("%s sent no %s frame", side, kind)
			}
		}
		return stream
	}
	streams := [][]byte{
		check("client", cw, "hello", "funcs", "run request", "cancel"),
		check("server", sw, "hello", "funcs", "run response"),
	}

	readAll := func(r io.Reader) [][]byte {
		var out [][]byte
		for {
			p, err := readRawFrame(r)
			if err == io.EOF {
				return out
			}
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, p)
		}
	}
	for _, stream := range streams {
		want := readAll(bytes.NewReader(stream))
		two := len(want[0]) + len(want[1]) + 2*frameHeader
		readers := map[string]func() io.Reader{
			"one byte per read": func() io.Reader { return iotest.OneByteReader(bytes.NewReader(stream)) },
			"half per read":     func() io.Reader { return iotest.HalfReader(bytes.NewReader(stream)) },
			"two frames in one read": func() io.Reader {
				return io.MultiReader(bytes.NewReader(stream[:two]), bytes.NewReader(stream[two:]))
			},
		}
		for name, mk := range readers {
			if got := readAll(mk()); !slices.EqualFunc(got, want, bytes.Equal) {
				t.Errorf("%s: payloads differ", name)
			}
			if got := readAll(bufio.NewReaderSize(mk(), 16)); !slices.EqualFunc(got, want, bytes.Equal) {
				t.Errorf("%s, buffered: payloads differ", name)
			}
		}
	}

	oversized := binary.BigEndian.AppendUint32(nil, maxFrame+1)
	for name, r := range map[string]io.Reader{
		"plain":    bytes.NewReader(oversized),
		"buffered": bufio.NewReader(bytes.NewReader(oversized)),
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := readRawFrame(r)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: oversized frame accepted", name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: refusing an oversized frame allocated %d bytes", name, grew)
		}
	}
}
