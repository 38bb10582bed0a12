package explore

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"lfi/internal/apps/minidb"
	"lfi/internal/apps/minidns"
	"lfi/internal/apps/minivcs"
	"lfi/internal/apps/miniweb"
	"lfi/internal/controller"
	"lfi/internal/core"
	"lfi/internal/distharness"
	"lfi/internal/exec"
	"lfi/internal/libsim"
	"lfi/internal/pbft"
	"lfi/internal/raft"
	"lfi/internal/scenario"
	"lfi/internal/system"
)

// freshImage builds a process image that has never been recycled, with
// its default workload: the reference a pooled image must match. For
// the distributed targets it also returns the harness, whose Drops the
// run fills.
type freshImage func() (*libsim.C, func() error, *distharness.Harness)

// freshImages holds every registered system's fresh-image constructor.
var freshImages = map[string]freshImage{
	"minidb": func() (*libsim.C, func() error, *distharness.Harness) {
		a := minidb.New()
		return a.C, a.RunSuite, nil
	},
	"minidns": func() (*libsim.C, func() error, *distharness.Harness) {
		a := minidns.New()
		return a.C, a.RunSuite, nil
	},
	"minivcs": func() (*libsim.C, func() error, *distharness.Harness) {
		a := minivcs.New()
		return a.C, a.RunSuite, nil
	},
	"miniweb": func() (*libsim.C, func() error, *distharness.Harness) {
		a := miniweb.New()
		return a.C, a.RunSuite, nil
	},
	"pbft": func() (*libsim.C, func() error, *distharness.Harness) { return harnessImage(pbft.Protocol()) },
	"raft": func() (*libsim.C, func() error, *distharness.Harness) { return harnessImage(raft.Protocol()) },
}

func harnessImage(p distharness.Protocol) (*libsim.C, func() error, *distharness.Harness) {
	h := distharness.New(p)
	return h.R.Image(), h.Run, h
}

// recordingExec is the in-process backend, recording every scenario it
// is asked to run, in dispatch order.
type recordingExec struct {
	*exec.Local
	mu  sync.Mutex
	ran []*scenario.Scenario
}

func (r *recordingExec) Run(ctx context.Context, b *exec.Batch) ([]*exec.Outcome, error) {
	r.mu.Lock()
	r.ran = append(r.ran, b.Scenarios...)
	r.mu.Unlock()
	return r.Local.Run(ctx, b)
}

// exploredScenarios returns every candidate Generate derives for the
// system followed by every mutant a default-flag explore breeds and
// runs, each once, in the order the explorer meets them.
func exploredScenarios(t *testing.T, d *system.Descriptor) []*scenario.Scenario {
	t.Helper()
	cfg := ConfigForSystem(d)
	rec := &recordingExec{Local: exec.NewLocal(runtime.GOMAXPROCS(0))}
	cfg.Exec = exec.NewFleet(rec)
	if _, err := exploreOne(cfg); err != nil {
		t.Fatal(err)
	}
	var out []*scenario.Scenario
	seen := map[string]bool{}
	add := func(s *scenario.Scenario) {
		if !seen[s.Name] {
			seen[s.Name] = true
			out = append(out, s)
		}
	}
	for _, c := range Generate(cfg) {
		add(c.Scenario)
	}
	candidates := len(out)
	for _, s := range rec.ran {
		add(s)
	}
	if len(out) == candidates {
		t.Fatalf("%s: the explore bred no mutants", d.Name)
	}
	return out
}

// observation is everything a run shows of its image: the crash, the
// workload error, the injections and their log, the coverage, and for
// the distributed targets which trace messages were lost.
type observation struct {
	Crash      string
	WorkErr    string
	Injections int
	Log        string
	Cov        string
	Drops      []int
}

func observe(o controller.Outcome, drops []int) observation {
	obs := observation{Injections: o.Injections, Cov: fmt.Sprint(o.CovU.AppendIDs(nil, o.Cov)), Drops: drops}
	if o.Crash != nil {
		obs.Crash = fmt.Sprintf("%+v", *o.Crash)
	}
	if o.WorkErr != nil {
		obs.WorkErr = o.WorkErr.Error()
	}
	if o.Log != nil {
		obs.Log = o.Log.String()
	}
	return obs
}

// TestRecycledOutcomesMatchFresh is the pooled-image contract of every
// registered system: each candidate and each bred mutant, run twice in
// order on the system's pooled Target — so every crashing run is
// followed by runs on the image it left behind — observes exactly what
// the same scenario observes on a freshly built image.
func TestRecycledOutcomesMatchFresh(t *testing.T) {
	for _, name := range system.Names() {
		d, _ := system.Lookup(name)
		fresh, ok := freshImages[name]
		if !ok {
			t.Fatalf("%s: no fresh-image constructor; add one to freshImages", name)
		}
		t.Run(name, func(t *testing.T) {
			scens := exploredScenarios(t, d)
			seed := core.WithSeed(1)

			want := make([]observation, len(scens))
			for i, s := range scens {
				var h *distharness.Harness
				tgt := controller.Target{Name: name, Coverage: true, Start: func() (*libsim.C, func() error) {
					c, work, hh := fresh()
					h = hh
					return c, work
				}}
				o, err := controller.RunOne(tgt, s, seed)
				if err != nil {
					t.Fatal(err)
				}
				var drops []int
				if h != nil {
					drops = h.Drops
				}
				want[i] = observe(o, drops)
			}

			var drops []int
			pooled := d.Target()
			pooled.Coverage = true
			recycle := pooled.Recycle
			pooled.Recycle = func(c *libsim.C) {
				drops = nil
				if h, ok := c.Owner.(*distharness.Harness); ok {
					drops = append([]int(nil), h.Drops...)
				}
				recycle(c)
			}
			crashes := 0
			for pass := 1; pass <= 2; pass++ {
				for i, s := range scens {
					o, err := controller.RunOne(pooled, s, seed)
					if err != nil {
						t.Fatal(err)
					}
					if o.Crash != nil {
						crashes++
					}
					if got := observe(o, drops); !reflect.DeepEqual(got, want[i]) {
						t.Fatalf("pass %d, %s: pooled image observed\n%+v\nfresh image\n%+v", pass, s.Name, got, want[i])
					}
				}
			}
			t.Logf("%d scenarios, %d crashing runs", len(scens), crashes)
			if crashes == 0 {
				t.Fatalf("%s: no run crashed; the recycled images never faced a crashed predecessor", name)
			}
		})
	}
}

// TestExploredScenariosCrossTheWire: every scenario a default-flag
// explore generates or breeds, on every registered system, survives
// its binary wire record. The decoded scenario has the original's
// canonical bytes, so a worker runs what the explorer keyed, and
// validates exactly as the original does.
func TestExploredScenariosCrossTheWire(t *testing.T) {
	for _, d := range system.All() {
		t.Run(d.Name, func(t *testing.T) {
			scens := exploredScenarios(t, d)
			for _, s := range scens {
				got, err := scenario.DecodeBinary(string(s.AppendBinary(nil)))
				if err != nil {
					t.Fatalf("%s: decode: %v", s.Name, err)
				}
				if want, have := s.AppendCanonical(nil), got.AppendCanonical(nil); !bytes.Equal(want, have) {
					t.Fatalf("%s: canonical bytes differ after the record:\n%s\nvs\n%s", s.Name, have, want)
				}
				if want, have := fmt.Sprint(s.Validate()), fmt.Sprint(got.Validate()); want != have {
					t.Fatalf("%s: Validate gives %s after the record, %s before", s.Name, have, want)
				}
			}
			t.Logf("%d scenarios", len(scens))
		})
	}
}
