// Command bench is the end-to-end benchmark of `lfi explore`. It times
// Session.ExploreAll over every registered system, one campaign at a
// time (closed loop), on four workloads that stress different layers,
// checks every campaign's result, and reports the metrics
// BENCHMARK.json declares. From the repository root:
//
//	bash bench/run.sh --workload explore-cold --seed 1 --seconds 22 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics, or
// with --trace 1 the per-layer ones. A readable report goes to standard
// error; the full report, and the span log of a traced run, go to -out.
// With no --workload every workload runs, each in a process of its own.
// README.md describes the workloads, the metrics and their bounds.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	osexec "os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"lfi"
)

func main() {
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(childMain(spec))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command line: it returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run; empty runs all of them, each in its own process")
	seed := fs.Int64("seed", 1, "workload seed, passed to lfi.WithSeed")
	seconds := fs.Int("seconds", 22, "measurement length of one run, in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "results"), "directory for the full JSON report and span log (empty: none)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: usage: bench [-workload name] [-seed n] [-seconds n] [-trace 0|1] [-out dir]")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *name == "" {
		return runAll(ctx, *seed, *seconds, *trace, *out, stdout, stderr)
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	o := options{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	rep, err := runWorkload(ctx, w, o)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	rep.print(stderr)
	if *out != "" {
		if err := rep.write(*out); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	res := rep.result(o.trace)
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload in a fresh process of its own, so heap
// state and peak RSS do not carry from one workload into the next, and
// prints their results as one JSON object keyed by workload.
func runAll(ctx context.Context, seed int64, seconds, trace int, out string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	all := make(map[string]json.RawMessage)
	code := 0
	for _, w := range workloads {
		cmd := osexec.CommandContext(ctx, self, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace), "-out", out)
		cmd.Stderr = stderr
		got, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			code = 1
		}
		lines := strings.Split(strings.TrimSpace(string(got)), "\n")
		if last := lines[len(lines)-1]; json.Valid([]byte(last)) {
			all[w.name] = json.RawMessage(last)
		}
	}
	if err := json.NewEncoder(stdout).Encode(all); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	return code
}

// metricDef names one reported metric and its unit; BENCHMARK.json
// declares the same set, with the direction and bound.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of `lfi explore` sees.
var endToEnd = []metricDef{
	{"tests_per_s", "1/s"},
	{"campaign_s_p50", "s"},
	{"campaign_s_tail", "s"},
	{"setup_s", "s"},
	{"alloc_mb_per_campaign", "MB"},
	{"rss_peak_mb", "MB"},
}

// perLayer are the metrics of the traced pass. The per-system ones
// follow the registry, so a new system adds its own names.
func perLayer() []metricDef {
	defs := []metricDef{
		{"exec.busy_frac", "frac"},
		{"exec.batches", "count"},
		{"exec.batch_ms_p50", "ms"},
		{"exec.batch_ms_p95", "ms"},
	}
	for _, sys := range lfi.Systems() {
		defs = append(defs, metricDef{"exec.test_us." + sys.Name, "us"})
	}
	defs = append(defs, metricDef{"wire.tax_us_per_test", "us"})
	for _, sys := range lfi.Systems() {
		defs = append(defs, metricDef{"controller.run_us." + sys.Name, "us"})
	}
	for _, sys := range lfi.Systems() {
		defs = append(defs, metricDef{"controller.alloc_kb." + sys.Name, "KB"})
	}
	return append(defs,
		metricDef{"netsim.endpoint_us", "us"},
		metricDef{"netsim.endpoint_kb", "KB"},
		metricDef{"explore.self_s", "s"},
		metricDef{"explore.generate_ms", "ms"},
		metricDef{"explore.candidates", "count"},
		metricDef{"callgraph.lint_ms", "ms"},
		metricDef{"store.load_ms", "ms"},
		metricDef{"store.flush_ms", "ms"},
		metricDef{"store.entries", "count"},
		metricDef{"store.disk_mb", "MB"},
		metricDef{"runtime.gc_cycles", "count"},
		metricDef{"runtime.gc_pause_ms", "ms"},
		metricDef{"trace.overhead_frac", "frac"},
	)
}

// report is everything one workload run measured.
type report struct {
	Workload      string             `json:"workload"`
	Seed          int64              `json:"seed"`
	Seconds       float64            `json:"seconds"`
	Trace         bool               `json:"trace"`
	Samples       int                `json:"samples"`
	TracedSamples int                `json:"traced_samples,omitempty"`
	TailPct       int                `json:"tail_pct"`
	SetupRuns     int                `json:"setup_runs"`
	RSSRuns       int                `json:"rss_runs"`
	Attempted     int                `json:"attempted"`
	Failed        int                `json:"failed"`
	Failures      []string           `json:"failures,omitempty"`
	Walls         []float64          `json:"walls"` // untraced campaign seconds, in run order, unscaled
	Refs          []float64          `json:"refs"`  // the reference's seconds around each of them
	Metrics       map[string]float64 `json:"metrics"`
	Layers        map[string]float64 `json:"layers,omitempty"`
	// Info holds figures that are reported but not gated: what each
	// campaign did, the fixture and warm-up times, the reference's
	// median, and the gated times before scaling.
	Info  map[string]float64 `json:"info"`
	spans []*span
}

// value is one metric of the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object on the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// result selects the end-to-end metrics, or the per-layer ones for a
// traced run. A metric that was not measured, or is not finite, makes
// the result incorrect rather than printing a made-up number.
func (r *report) result(traced bool) result {
	defs, got := endToEnd, r.Metrics
	if traced {
		defs, got = perLayer(), r.Layers
	}
	res := result{Correct: r.Failed == 0 && r.Attempted > 0, Attempted: r.Attempted, Failed: r.Failed,
		Metrics: make(map[string]value, len(defs))}
	for _, d := range defs {
		v, ok := got[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			res.Correct = false
			continue
		}
		res.Metrics[d.name] = value{v, d.unit}
	}
	return res
}

// print writes the human-readable report.
func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "%s seed=%d: %d samples, %d/%d campaigns correct\n",
		r.Workload, r.Seed, r.Samples, r.Attempted-r.Failed, r.Attempted)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	notes := map[string]string{
		"campaign_s_tail": fmt.Sprintf("p%d of %d samples", r.TailPct, r.Samples),
		"campaign_s_p50":  fmt.Sprintf("median of %d samples", r.Samples),
		"setup_s":         fmt.Sprintf("median of %d fresh processes", r.SetupRuns),
		"rss_peak_mb":     fmt.Sprintf("median of %d fresh processes", r.RSSRuns),
	}
	for _, d := range endToEnd {
		if v, ok := r.Metrics[d.name]; ok {
			fmt.Fprintf(w, "  %-28s %12.6g %-6s %s\n", d.name, v, d.unit, notes[d.name])
		}
	}
	for _, k := range sortedKeys(r.Info) {
		fmt.Fprintf(w, "  %-28s %12.6g        (info)\n", k, r.Info[k])
	}
	if r.Trace {
		fmt.Fprintf(w, "  per-layer, %d traced samples:\n", r.TracedSamples)
		for _, d := range perLayer() {
			if v, ok := r.Layers[d.name]; ok {
				fmt.Fprintf(w, "  %-28s %12.6g %s\n", d.name, v, d.unit)
			}
		}
	}
}

// write stores the full report, and the spans of a traced run, under dir.
func (r *report) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("writing report: %w", err)
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", r.Workload, r.Seed, boolInt(r.Trace)))
	if err := writeJSON(base+".json", r); err != nil {
		return err
	}
	if r.Trace {
		return writeJSON(base+"-spans.json", r.spans)
	}
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// --- child processes ---------------------------------------------------------

// childEnv carries a child's job. The benchmark re-executes its own
// binary for work that must happen in a fresh process: set-up, and the
// peak memory of one campaign, are what a user's `lfi explore` process
// pays, and building the warm store must not count against the resume
// workload's memory. Tests re-execute the test binary the same way.
const childEnv = "LFIBENCH_CHILD"

// child is one job for a re-executed process.
type child struct {
	Mode     string `json:"mode"` // "fresh", "fixture" or "ref"
	Workload string `json:"workload,omitempty"`
	Seed     int64  `json:"seed"`
	Dir      string `json:"dir"`                // store root, or the ref's write dir; "" for none
	Campaign bool   `json:"campaign,omitempty"` // fresh: run one campaign after set-up
}

// childMain runs the job in spec and returns the exit code.
func childMain(spec string) int {
	var c child
	err := json.Unmarshal([]byte(spec), &c)
	if err == nil {
		err = c.run(context.Background(), os.Stdout)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s child: %v\n", c.Mode, err)
		return 1
	}
	return 0
}

// run does the job. A fresh child sets up and prints "ready"; with
// Campaign it then runs and checks one campaign and prints its peak RSS
// in MB. A fixture child builds the warm store and prints how many
// sessions that took. A ref child times the reference work on request.
func (c child) run(ctx context.Context, stdout io.Writer) error {
	switch c.Mode {
	case "fresh":
		w, ok := lookupWorkload(c.Workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", c.Workload)
		}
		rg, err := newRig(w, c.Seed, c.Dir, nil)
		if err != nil {
			return err
		}
		defer rg.close()
		if _, err := fmt.Fprintln(stdout, "ready"); err != nil || !c.Campaign {
			return err
		}
		res, err := rg.sess.ExploreAll(ctx)
		check := checker{resume: w.store == warmStore}
		if err := check.check(res, err); err != nil {
			return err
		}
		_, err = fmt.Fprintln(stdout, peakRSS())
		return err
	case "fixture":
		n, err := buildWarmStore(ctx, c.Seed, c.Dir)
		if err != nil {
			return err
		}
		_, err = fmt.Fprintln(stdout, n)
		return err
	case "ref":
		return serveRef(c.Dir, os.Stdin, stdout)
	}
	return fmt.Errorf("unknown mode %q", c.Mode)
}

// spawn runs a child process for job c and returns the lines it
// printed. ready, when non-nil, is called as soon as the first line
// arrives.
func spawn(ctx context.Context, c child, ready func()) ([]string, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	spec, err := json.Marshal(c)
	if err != nil {
		return nil, err
	}
	cmd := osexec.CommandContext(ctx, self)
	cmd.Env = append(os.Environ(), childEnv+"="+string(spec))
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("%s child: %w", c.Mode, err)
	}
	br := bufio.NewReader(out)
	first, rerr := br.ReadString('\n')
	if rerr == nil && ready != nil {
		ready()
	}
	rest, _ := io.ReadAll(br) // a read error shows up in Wait
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("%s child: %w", c.Mode, err)
	}
	return strings.Fields(first + string(rest)), nil
}
