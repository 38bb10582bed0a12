package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"

	"lfi"
)

func TestMain(m *testing.M) {
	// Set-up timing and the warm store re-execute this binary.
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(childMain(spec))
	}
	os.Exit(m.Run())
}

// TestSmoke runs every workload through the benchmark's own code path, traced,
// with one sample per session, no warm-up and one probe round. The first
// campaign is untraced and the second traced, and the checker compares
// every campaign with the first, so a traced wrapper that changed what a
// campaign executes or finds fails here on every workload. Every metric
// BENCHMARK.json declares must come out with a finite value.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload end to end")
	}
	decl := readBenchmarkJSON(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			rep, err := runWorkload(context.Background(), w, options{seed: 1, trace: true, smoke: true})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Failed > 0 || rep.Samples != 1 || rep.TracedSamples != 1 {
				t.Fatalf("%d of %d campaigns failed (%d untraced and %d traced samples): %v",
					rep.Failed, rep.Attempted, rep.Samples, rep.TracedSamples, rep.Failures)
			}
			for _, traced := range []bool{false, true} {
				want := decl.EndToEnd
				if traced {
					want = decl.PerLayer
				}
				res := rep.result(traced)
				if !res.Correct {
					t.Errorf("traced=%v: result not correct: %+v", traced, res)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("traced=%v: %d metrics emitted, %d declared", traced, len(res.Metrics), len(want))
				}
				for _, m := range want {
					if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
						t.Errorf("traced=%v: %s: emitted %+v (present %v), declared unit %s", traced, m.Name, got, ok, m.Unit)
					}
				}
			}
		})
	}
}

// TestWrapKeepsOptionalMethods: the fleet scheduler pipelines batches to
// backends with Pipeline and reconciles images through ImageVersion and
// FuncFingerprints, so the traced wrapper must have exactly the wrapped
// backend's optional methods.
func TestWrapKeepsOptionalMethods(t *testing.T) {
	tr := newTracer()
	local := tr.wrap(lfi.NewLocalExecutor(2))
	if _, ok := local.(pipeliner); ok {
		t.Error("wrapped local backend gained Pipeline")
	}
	if _, ok := local.(imaged); ok {
		t.Error("wrapped local backend gained ImageVersion")
	}

	addr, stop, err := serve()
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	rem, err := lfi.DialExecutor(addr)
	if err != nil {
		t.Fatal(err)
	}
	rem.SetPipeline(3) // not the default, so a match is not an accident
	wrapped := tr.wrap(rem)
	defer wrapped.Close()
	if wrapped.Info() != rem.Info() {
		t.Errorf("Info %+v, want %+v", wrapped.Info(), rem.Info())
	}
	p, ok := wrapped.(pipeliner)
	if !ok || p.Pipeline() != rem.Pipeline() {
		t.Errorf("wrapped remote Pipeline: present %v, want %d", ok, rem.Pipeline())
	}
	im, ok := wrapped.(imaged)
	if !ok {
		t.Fatal("wrapped remote lost ImageVersion")
	}
	sys := lfi.Systems()[0]
	if got, want := im.ImageVersion(sys.Name), rem.ImageVersion(sys.Name); got != want || want == "" {
		t.Errorf("ImageVersion(%s) = %q, want %q", sys.Name, got, want)
	}
}

// TestBusyIsUnion: remote batches overlap, so busy time is the union of
// the exec.run intervals under a span, clipped to it, not their sum.
func TestBusyIsUnion(t *testing.T) {
	tr := newTracer()
	top := &span{ID: 1, Start: 10, End: 100}
	tr.spans = []*span{top}
	tr.cur.Store(1)
	for _, iv := range [][2]int64{{0, 20}, {15, 30}, {40, 50}, {45, 48}, {90, 120}} {
		tr.child("exec.run", "s", 1, iv[0], iv[1])
	}
	got, n := tr.busy(top)
	if want := int64((30 - 10) + (50 - 40) + (100 - 90)); int64(got) != want || n != 5 {
		t.Errorf("busy = %d ns over %d spans, want %d over 5", got, n, want)
	}
}

// declMetric is one metric as BENCHMARK.json declares it.
type declMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declMetric `json:"end_to_end"`
	PerLayer []declMetric `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(data))
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestBenchmarkJSON validates the declaration against its format and
// against what the benchmark emits.
func TestBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("bad name %q", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}

	if len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("paths %v, want [bench]", b.Paths)
	}
	if n := len(b.Command); n == 0 || n > 32 {
		t.Errorf("command has %d strings", n)
	}
	for _, s := range b.Command {
		if len(s) > 200 || strings.HasPrefix(s, "/") || strings.Contains(s, "..") {
			t.Errorf("command string %q", s)
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d", b.RunSeconds)
	}

	if n := len(b.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	var wnames []string
	for _, w := range b.Workloads {
		name(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			t.Errorf("workload %s: why must be one line of 1 to 200 characters", w.Name)
		}
		wnames = append(wnames, w.Name)
	}
	if got, want := strings.Join(wnames, " "), strings.Join(workloadNames(), " "); got != want {
		t.Errorf("declared workloads %s, the benchmark runs %s", got, want)
	}

	if n := len(b.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(b.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	maxBound := 0.0
	for i, set := range [][]declMetric{b.EndToEnd, b.PerLayer} {
		for _, m := range set {
			name(m.Name)
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("%s: bad unit %q", m.Name, m.Unit)
			}
			if m.Better != "higher" && m.Better != "lower" {
				t.Errorf("%s: better %q", m.Name, m.Better)
			}
			switch {
			case i == 1 && m.Bound != nil:
				t.Errorf("per-layer %s has a bound", m.Name)
			case i == 0 && (m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25):
				t.Errorf("end-to-end %s: bound must be in (0, 0.25]", m.Name)
			case i == 0:
				maxBound = max(maxBound, *m.Bound)
			}
		}
	}

	setup := false
	for _, m := range b.EndToEnd {
		if m.Name == "setup_s" && m.Bound != nil {
			setup = m.Unit == "s" && m.Better == "lower" && *m.Bound == maxBound
		}
	}
	if !setup {
		t.Error("setup_s must be declared in s, lower is better, with the largest bound")
	}

	sameMetrics(t, "end-to-end", b.EndToEnd, endToEnd)
	sameMetrics(t, "per-layer", b.PerLayer, perLayer())
}

func sameMetrics(t *testing.T, set string, declared []declMetric, emitted []metricDef) {
	t.Helper()
	var d, e []string
	for _, m := range declared {
		d = append(d, m.Name+" "+m.Unit)
	}
	for _, m := range emitted {
		e = append(e, m.name+" "+m.unit)
	}
	if got, want := strings.Join(d, ", "), strings.Join(e, ", "); got != want {
		t.Errorf("%s metrics declared:\n  %s\nemitted:\n  %s", set, got, want)
	}
}
