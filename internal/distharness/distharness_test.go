package distharness_test

import (
	"fmt"
	"reflect"
	"testing"

	"lfi/internal/core"
	"lfi/internal/distharness"
	"lfi/internal/libsim"
	"lfi/internal/pbft"
	"lfi/internal/raft"
	"lfi/internal/scenario"
)

// dropsUnderSeed replays the RAFT trace with a probabilistic recvfrom
// fault and returns the observed loss ordering — which trace messages
// the zero-depth buffer dropped, in order. Crashes and workload
// failures are irrelevant here; only the drop sequence is under test.
func dropsUnderSeed(t *testing.T, seed int64) []int {
	t.Helper()
	s, err := scenario.ParseString(`<scenario name="drop-coin">
	  <trigger id="rnd" class="RandomTrigger"><args><probability>0.4</probability></args></trigger>
	  <function name="recvfrom" return="-1" errno="EINTR"><reftrigger ref="rnd" /></function>
	</scenario>`)
	if err != nil {
		t.Fatal(err)
	}
	h := distharness.New(raft.Protocol())
	rt, err := core.New(h.R.Image(), s, core.WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	rt.Install()
	defer rt.Uninstall()
	func() {
		defer func() { recover() }() // a simulated crash ends the replay early
		h.Run()
	}()
	return h.Drops
}

// TestDropOrderingDeterministic is the harness's determinism property:
// the same seed must produce the identical drop ordering through the
// trace loop — endpoint creation order, staging order and the
// zero-depth-buffer drop rule leave the injected RNG as the only
// source of variation. A different seed exists that produces a
// different ordering, so the property is not vacuous.
func TestDropOrderingDeterministic(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		a, b := dropsUnderSeed(t, seed), dropsUnderSeed(t, seed)
		if len(a) == 0 {
			t.Fatalf("seed %d: no drops; probability too low for the property to bite", seed)
		}
		if len(a) != len(b) {
			t.Fatalf("seed %d: drop counts diverged: %v vs %v", seed, a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d: drop ordering diverged at %d: %v vs %v", seed, i, a, b)
			}
		}
	}
	a, diverged := dropsUnderSeed(t, 1), false
	for seed := int64(2); seed <= 6 && !diverged; seed++ {
		c := dropsUnderSeed(t, seed)
		if len(c) != len(a) {
			diverged = true
			break
		}
		for i := range a {
			if a[i] != c[i] {
				diverged = true
				break
			}
		}
	}
	if !diverged {
		t.Fatal("five different seeds all produced the same drop ordering")
	}
}

// replay is one run on h under seed of a scenario that fails receives
// and file opens at random, as the controller sees it: the drops, the
// crash or workload error, and the injection log.
type replay struct {
	Drops []int
	Crash string
	Err   string
	Log   string
}

func replayOn(t *testing.T, h *distharness.Harness, seed int64) replay {
	t.Helper()
	s, err := scenario.ParseString(`<scenario name="drop-and-fopen-coin">
	  <trigger id="rnd" class="RandomTrigger"><args><probability>0.5</probability></args></trigger>
	  <function name="recvfrom" return="-1" errno="EINTR"><reftrigger ref="rnd" /></function>
	  <function name="fopen" return="0" errno="ENOSPC"><reftrigger ref="rnd" /></function>
	</scenario>`)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := core.New(h.R.Image(), s, core.WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	rt.Install()
	var r replay
	func() {
		defer func() {
			if p := recover(); p != nil {
				cr, ok := p.(*libsim.Crash)
				if !ok {
					panic(p)
				}
				r.Crash = fmt.Sprintf("%+v", *cr)
			}
		}()
		if err := h.Run(); err != nil {
			r.Err = err.Error()
		}
	}()
	rt.Uninstall()
	r.Drops = append([]int(nil), h.Drops...)
	r.Log = rt.Log().String()
	rt.Release()
	return r
}

// TestHarnessResetReplaysLikeNew: a harness reset after any run — one
// that lost messages, crashed mid-handler or in its epilogue, or
// failed its oracle — replays the next run exactly like a freshly
// built harness.
func TestHarnessResetReplaysLikeNew(t *testing.T) {
	for _, p := range []distharness.Protocol{raft.Protocol(), pbft.Protocol()} {
		crashed := 0
		for seed := int64(1); seed <= 12; seed++ {
			want := replayOn(t, distharness.New(p), seed)
			h := distharness.New(p)
			for _, prev := range []int64{seed + 100, seed + 200} {
				if replayOn(t, h, prev).Crash != "" {
					crashed++
				}
				h.Reset()
			}
			if got := replayOn(t, h, seed); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s seed %d: reset harness replayed\n%+v\nfresh harness\n%+v", p.Name(), seed, got, want)
			}
		}
		if crashed == 0 {
			t.Fatalf("%s: no run before a reset crashed; the property would be vacuous", p.Name())
		}
	}
}
