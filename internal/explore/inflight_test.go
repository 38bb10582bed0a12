package explore

import (
	"context"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"lfi/internal/exec"
	"lfi/internal/system"
)

// recorder is an Executor that records every Run call around an inner
// backend: which systems have a batch in flight, whether two batches
// of one system or of two systems were ever in flight together, and the
// names of the outcomes each call returned. hold, when set, runs after
// the inner batch and before Run returns, with the call's index.
type recorder struct {
	inner exec.Executor
	hold  func(call int)

	mu      sync.Mutex
	flying  map[string]int
	calls   int
	double  bool // one system had two batches in flight
	overlap bool // two systems had batches in flight together
	ran     [][]string
	began   chan struct{} // closed once two systems overlap
}

func newRecorder(inner exec.Executor) *recorder {
	return &recorder{inner: inner, flying: map[string]int{}, began: make(chan struct{})}
}

func (r *recorder) Info() exec.Info { return r.inner.Info() }
func (r *recorder) Close() error    { return r.inner.Close() }

func (r *recorder) Run(ctx context.Context, b *exec.Batch) ([]*exec.Outcome, error) {
	r.mu.Lock()
	call := r.calls
	r.calls++
	r.ran = append(r.ran, nil)
	r.flying[b.System]++
	if r.flying[b.System] > 1 {
		r.double = true
	}
	if len(r.flying) > 1 && !r.overlap {
		r.overlap = true
		close(r.began)
	}
	r.mu.Unlock()

	outs, err := r.inner.Run(ctx, b)
	var names []string
	for _, o := range outs {
		if o != nil {
			names = append(names, o.Name)
		}
	}
	if r.hold != nil {
		r.hold(call)
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	r.ran[call] = names
	if r.flying[b.System]--; r.flying[b.System] == 0 {
		delete(r.flying, b.System)
	}
	return outs, err
}

// allConfigs returns every registered system's config on one fleet.
func allConfigs(fleet *exec.Fleet, store string) []Config {
	var cfgs []Config
	for _, d := range system.All() {
		cfg := ConfigForSystem(d)
		cfg.Exec = fleet
		cfg.Store = store
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

// TestInFlightOneBatchPerSystem pins the scheduler's in-flight contract
// on an unbudgeted session over every system: a second system's batch
// is launched while the first is still running, and no system ever has
// two batches in flight. The first batch is held until another
// system's batch has begun, so a serial scheduler fails here instead
// of passing by luck.
func TestInFlightOneBatchPerSystem(t *testing.T) {
	rec := newRecorder(exec.NewLocal(2))
	rec.hold = func(call int) {
		if call != 0 {
			return
		}
		select {
		case <-rec.began:
		case <-time.After(10 * time.Second):
			t.Error("no second system's batch began while the first was in flight")
		}
	}
	fleet := exec.NewFleet(rec)
	defer fleet.Close()
	res, err := Explore(context.Background(), 0, allConfigs(fleet, "")...)
	if err != nil {
		t.Fatal(err)
	}
	if rec.double {
		t.Error("a system had two batches in flight at once")
	}
	if !rec.overlap {
		t.Error("no two systems' batches were in flight together")
	}
	if len(rec.flying) != 0 {
		t.Errorf("batches still in flight after Explore returned: %v", rec.flying)
	}
	total := 0
	for _, names := range rec.ran {
		total += len(names)
	}
	if total != res.Executed {
		t.Errorf("executor ran %d tests, the session counted %d", total, res.Executed)
	}
}

// TestInFlightCancelLandsBoth: a session cancelled while two systems'
// batches are in flight lands both before saving, so the store holds
// every outcome either batch completed and the resume re-executes none
// of them.
func TestInFlightCancelLandsBoth(t *testing.T) {
	store := filepath.Join(t.TempDir(), "store")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rec := newRecorder(exec.NewLocal(2))
	// The first two batches both finish their tests, then the session
	// is cancelled while both are still in flight.
	var mu sync.Mutex
	finished := 0
	both := make(chan struct{})
	rec.hold = func(call int) {
		if call > 1 {
			return
		}
		mu.Lock()
		if finished++; finished == 2 {
			close(both)
		}
		mu.Unlock()
		select {
		case <-both:
		case <-time.After(10 * time.Second):
			t.Error("no second system's batch ran while the first was in flight")
		}
		cancel()
	}
	fleet := exec.NewFleet(rec)
	defer fleet.Close()
	res, err := Explore(ctx, 0, allConfigs(fleet, store)...)
	if err != context.Canceled {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if !rec.overlap || rec.double {
		t.Fatalf("overlap %v, double %v: want two systems' batches in flight, one each", rec.overlap, rec.double)
	}
	completed := map[string]bool{}
	for _, names := range rec.ran[:2] {
		if len(names) == 0 {
			t.Fatal("an in-flight batch completed no test")
		}
		for _, n := range names {
			completed[n] = true
		}
	}
	if res.Executed != len(completed) {
		t.Fatalf("cancelled session counted %d executed, the two in-flight batches completed %d", res.Executed, len(completed))
	}

	resume := newRecorder(exec.NewLocal(2))
	fleet2 := exec.NewFleet(resume)
	defer fleet2.Close()
	again, err := Explore(context.Background(), 0, allConfigs(fleet2, store)...)
	if err != nil {
		t.Fatal(err)
	}
	if again.Replayed != len(completed) {
		t.Errorf("resume replayed %d, want the %d outcomes of the two in-flight batches", again.Replayed, len(completed))
	}
	for _, names := range resume.ran {
		for _, n := range names {
			if completed[n] {
				t.Errorf("resume re-executed %s, completed before the cancel", n)
			}
		}
	}
}
