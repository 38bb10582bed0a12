package main

import (
	"context"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"lfi"
	"lfi/internal/explore"
)

// storeKind is how a workload's sessions persist outcomes.
type storeKind int

const (
	noStore    storeKind = iota
	freshStore           // an empty store for every campaign: the write path
	warmStore            // a converged store every campaign resumes from: the read path
)

// workload is one set of inputs. Every campaign is Session.ExploreAll
// over all registered systems with default flags; workloads differ in
// the store and the execution backend, which is what moves the work
// between layers. README.md says why each one exists.
type workload struct {
	name   string
	store  storeKind
	remote bool // run batches on an in-process `lfi serve` worker over TCP
	// tail is the percentile reported as campaign_s_tail: the highest
	// one with at least ten samples beyond it at the default run length
	// on a host running at the reference's nominal speed.
	tail int
}

var workloads = []workload{
	{name: "explore-cold", tail: 60},
	{name: "explore-store", store: freshStore, tail: 55},
	{name: "resume", store: warmStore, tail: 90},
	{name: "remote", remote: true, tail: 60},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// options are the knobs of one workload run.
type options struct {
	seed    int64
	seconds time.Duration
	trace   bool
	// smoke runs one sample per pass, no warm-up, one set-up process
	// and one probe round: the smoke test's path through the same code.
	smoke bool
}

const (
	// setupRuns and rssRuns are how many fresh processes setup_s and
	// rss_peak_mb are the medians of. Set-up alone takes milliseconds;
	// an RSS process also runs a whole campaign.
	setupRuns = 15
	rssRuns   = 3
	// maxFixtureSessions bounds the explores the warm store may take to
	// converge. At the parent commit it takes three: the second session
	// still executes 32 minidns tests, the third none.
	maxFixtureSessions = 5
	mb                 = 1 << 20
)

// runner carries one workload run.
type runner struct {
	w     workload
	o     options
	tmp   string // per-invocation temp dir; every store lives under it
	warm  string // the converged store, once built
	check checker
	rep   *report
	ref   *refClock
	// lastRef is the latest reference time, taken after the previous
	// campaign; 0 before the first.
	lastRef time.Duration
}

// runWorkload runs w and returns its report. All stores live under one
// temp dir that is removed on every return path, and the reference
// process is stopped on every return path.
func runWorkload(ctx context.Context, w workload, o options) (*report, error) {
	tmp, err := os.MkdirTemp("", "lfibench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	refDir := ""
	if w.store == freshStore {
		refDir = filepath.Join(tmp, "ref")
	}
	ref, err := startRef(ctx, refDir)
	if err != nil {
		return nil, err
	}
	r := &runner{w: w, o: o, tmp: tmp, ref: ref, check: checker{resume: w.store == warmStore}, rep: &report{
		Workload: w.name, Seed: o.seed, Seconds: o.seconds.Seconds(), Trace: o.trace, TailPct: w.tail,
		Metrics: map[string]float64{}, Info: map[string]float64{},
	}}
	err = r.run(ctx)
	if cerr := ref.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	return r.rep, nil
}

func (r *runner) run(ctx context.Context) error {
	if r.w.store == warmStore {
		if err := r.buildWarm(ctx); err != nil {
			return err
		}
	}
	if err := r.measureFresh(ctx); err != nil {
		return err
	}
	var tr *tracer
	if r.o.trace {
		tr = newTracer()
	}
	plain, traced, err := r.measure(ctx, tr)
	if err != nil {
		return err
	}
	r.endToEnd(plain)
	if tr == nil {
		return nil
	}
	r.rep.TracedSamples = len(traced)
	r.rep.Layers = r.campaignLayers(plain, traced)
	if r.warm == "" {
		if err := r.buildWarm(ctx); err != nil {
			return err
		}
	}
	rounds := probeRounds
	if r.o.smoke {
		rounds = 1
	}
	p := &prober{ctx: ctx, seed: r.o.seed, rounds: rounds, tr: tr, tmp: r.tmp, layers: r.rep.Layers}
	if err := p.run(r.w.remote, r.warm); err != nil {
		return err
	}
	r.rep.spans = tr.spans
	return nil
}

// measureFresh times set-up in setupRuns fresh processes, the reference
// right before each, and records as setup_s the median set-up scaled by
// the median reference. The first rssRuns of them also run one
// campaign; the median of their peak RSS is rss_peak_mb.
func (r *runner) measureFresh(ctx context.Context) error {
	setupN, rssN := setupRuns, rssRuns
	if r.o.smoke {
		setupN, rssN = 1, 1
	}
	var setup, refs, rss []float64
	for i := 0; i < setupN; i++ {
		c := child{Mode: "fresh", Workload: r.w.name, Seed: r.o.seed, Campaign: i < rssN}
		switch r.w.store {
		case freshStore:
			c.Dir = filepath.Join(r.tmp, fmt.Sprintf("fresh%d", i))
		case warmStore:
			c.Dir = r.warm
		}
		rt, err := r.ref.time()
		if err != nil {
			return err
		}
		var ready time.Duration
		begin := time.Now()
		lines, err := spawn(ctx, c, func() { ready = time.Since(begin) })
		if err != nil {
			return err
		}
		if len(lines) == 0 || lines[0] != "ready" || len(lines) != 1+boolInt(c.Campaign) {
			return fmt.Errorf("fresh child printed %q", lines)
		}
		setup = append(setup, ready.Seconds())
		refs = append(refs, rt.Seconds())
		if c.Campaign {
			peak, err := strconv.ParseFloat(lines[1], 64)
			if err != nil {
				return fmt.Errorf("fresh child printed %q", lines)
			}
			rss = append(rss, peak)
		}
	}
	r.rep.Metrics["setup_s"] = median(setup) * r.ref.nominal.Seconds() / median(refs)
	r.rep.Info["setup_s_unscaled"] = median(setup)
	r.rep.Metrics["rss_peak_mb"] = median(rss)
	r.rep.SetupRuns, r.rep.RSSRuns = setupN, rssN
	return nil
}

// buildWarm builds the converged store in a child process and records
// how long that took, as information only.
func (r *runner) buildWarm(ctx context.Context) error {
	dir := filepath.Join(r.tmp, "warm")
	begin := time.Now()
	lines, err := spawn(ctx, child{Mode: "fixture", Seed: r.o.seed, Dir: dir}, nil)
	if err != nil {
		return err
	}
	n, err := strconv.Atoi(strings.Join(lines, " "))
	if err != nil {
		return fmt.Errorf("fixture child printed %q", lines)
	}
	r.warm = dir
	r.rep.Info["fixture_s"] = time.Since(begin).Seconds()
	r.rep.Info["fixture_sessions"] = float64(n)
	return nil
}

// buildWarmStore repeats default-flag explores into dir until one
// session executes nothing, and returns how many sessions that took.
func buildWarmStore(ctx context.Context, seed int64, dir string) (int, error) {
	for n := 1; n <= maxFixtureSessions; n++ {
		sess, err := lfi.NewSession(lfi.WithSeed(seed), lfi.WithStore(dir))
		if err != nil {
			return n, err
		}
		res, err := sess.ExploreAll(ctx)
		sess.Close()
		if err != nil {
			return n, err
		}
		if res.Executed == 0 {
			return n, nil
		}
	}
	return maxFixtureSessions, fmt.Errorf("warm store did not converge: session %d still executed tests", maxFixtureSessions)
}

// sample is one measured campaign.
type sample struct {
	wall    time.Duration
	ref     time.Duration // mean of the reference timed right before and right after
	tests   int           // executed plus replayed
	alloc   uint64
	gcs     uint32
	gcPause time.Duration
	busy    time.Duration // traced: union of the exec.run intervals
	batches int           // traced: exec.run calls
}

// measure builds a session, runs one discarded warm-up campaign on it,
// then measures campaigns until the run length has passed. With tr set,
// a second, traced session alternates with the first campaign by
// campaign, so drift over the run affects both alike.
func (r *runner) measure(ctx context.Context, tr *tracer) (plain, traced []sample, err error) {
	tracers := []*tracer{nil}
	if tr != nil {
		tracers = append(tracers, tr)
	}
	rigs := make([]*rig, len(tracers))
	for i, t := range tracers {
		store := ""
		switch r.w.store {
		case freshStore:
			store = filepath.Join(r.tmp, fmt.Sprintf("store%d", i))
		case warmStore:
			store = r.warm
		}
		if rigs[i], err = newRig(r.w, r.o.seed, store, t); err != nil {
			return nil, nil, err
		}
		defer rigs[i].close()
	}
	if !r.o.smoke {
		for i, rg := range rigs {
			begin := time.Now()
			if _, _, err := r.campaign(ctx, rg); err != nil {
				return nil, nil, err
			}
			if i == 0 {
				r.rep.Info["warmup_s"] = time.Since(begin).Seconds()
			}
		}
	}
	samples := make([][]sample, len(rigs))
	begin := time.Now()
	for n := 0; n == 0 || (!r.o.smoke && time.Since(begin) < r.o.seconds); n++ {
		for i, rg := range rigs {
			s, ok, err := r.campaign(ctx, rg)
			if err != nil {
				return nil, nil, err
			}
			if ok {
				samples[i] = append(samples[i], s)
			}
		}
	}
	if tr != nil {
		traced = samples[1]
	}
	return samples[0], traced, nil
}

// campaign runs and checks one campaign. ok is false when the campaign
// failed its check (it is counted, not measured); err is set only when
// the run must stop.
func (r *runner) campaign(ctx context.Context, rg *rig) (s sample, ok bool, err error) {
	tr := rg.tr
	if rg.fresh {
		if err := os.RemoveAll(rg.store); err != nil {
			return s, false, err
		}
	}
	// The reference after one campaign is the one before the next.
	if r.lastRef == 0 {
		if r.lastRef, err = r.ref.time(); err != nil {
			return s, false, err
		}
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var sp *span
	if tr != nil {
		sp = tr.begin("campaign")
	}
	begin := time.Now()
	res, runErr := rg.sess.ExploreAll(ctx)
	s.wall = time.Since(begin)
	if tr != nil {
		tr.end(sp)
		s.wall = sp.duration()
		s.busy, s.batches = tr.busy(sp)
	}
	runtime.ReadMemStats(&after)
	if ctx.Err() != nil {
		return s, false, ctx.Err()
	}
	refAfter, err := r.ref.time()
	if err != nil {
		return s, false, err
	}
	s.ref, r.lastRef = (r.lastRef+refAfter)/2, refAfter
	r.rep.Attempted++
	if err := r.check.check(res, runErr); err != nil {
		r.rep.Failed++
		r.rep.Failures = append(r.rep.Failures, err.Error())
		return s, false, nil
	}
	s.tests = res.Executed + res.Replayed
	s.alloc = after.TotalAlloc - before.TotalAlloc
	s.gcs = after.NumGC - before.NumGC
	s.gcPause = time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	return s, true, nil
}

// endToEnd fills the end-to-end metrics from the untraced samples, each
// campaign's time scaled by the references timed around it.
func (r *runner) endToEnd(ss []sample) {
	m := r.rep.Metrics
	r.rep.Samples = len(ss)
	r.rep.Walls = each(ss, func(s sample) float64 { return s.wall.Seconds() })
	r.rep.Refs = each(ss, func(s sample) float64 { return s.ref.Seconds() })
	walls := each(ss, r.scaledWall)
	m["tests_per_s"] = median(each(ss, func(s sample) float64 { return float64(s.tests) / r.scaledWall(s) }))
	m["campaign_s_p50"] = median(walls)
	m["campaign_s_tail"] = percentile(walls, r.w.tail)
	r.rep.Info["campaign_s_p50_unscaled"] = median(r.rep.Walls)
	r.rep.Info["ref_s_p50"] = median(r.rep.Refs)
	m["alloc_mb_per_campaign"] = median(each(ss, func(s sample) float64 { return float64(s.alloc) / mb }))
	if ref := r.check.ref; ref != nil {
		r.rep.Info["executed"] = float64(ref.executed)
		r.rep.Info["replayed"] = float64(ref.replayed)
		r.rep.Info["failure_signatures"] = float64(strings.Count(ref.bugs, "\n"))
	}
}

// campaignLayers derives the per-layer metrics the traced campaigns
// give: where a campaign's wall time goes, and the GC work behind it.
// explore.self_s is scaled like campaign_s_p50, so the two compare.
func (r *runner) campaignLayers(plain, traced []sample) map[string]float64 {
	return map[string]float64{
		"exec.busy_frac":      median(each(traced, func(s sample) float64 { return s.busy.Seconds() / s.wall.Seconds() })),
		"exec.batches":        median(each(traced, func(s sample) float64 { return float64(s.batches) })),
		"explore.self_s":      median(each(traced, func(s sample) float64 { return r.ref.scale(s.wall-s.busy, s.ref) })),
		"runtime.gc_cycles":   median(each(traced, func(s sample) float64 { return float64(s.gcs) })),
		"runtime.gc_pause_ms": median(each(traced, func(s sample) float64 { return ms(s.gcPause) })),
		"trace.overhead_frac": median(each(traced, r.scaledWall))/median(each(plain, r.scaledWall)) - 1,
	}
}

// scaledWall is a campaign's wall time scaled by its reference.
func (r *runner) scaledWall(s sample) float64 { return r.ref.scale(s.wall, s.ref) }

// --- sessions ----------------------------------------------------------------

// rig is one ready session of a workload, with its in-process worker
// for the remote workload.
type rig struct {
	sess  *lfi.Session
	tr    *tracer // nil for an untraced session
	store string  // "" when the workload keeps no store
	fresh bool    // empty the store before every campaign
	stop  func()  // stops the in-process worker, if any
}

// newRig builds what set-up covers: the session, its backend (wrapped
// when tr is set; the session's own default pool otherwise), and the
// first touch of the explorer's per-system analyses.
func newRig(w workload, seed int64, store string, tr *tracer) (*rig, error) {
	rg := &rig{tr: tr, store: store, fresh: w.store == freshStore}
	opts := []lfi.SessionOption{lfi.WithSeed(seed)}
	if store != "" {
		opts = append(opts, lfi.WithStore(store))
	}
	var backend lfi.Executor
	switch {
	case w.remote:
		addr, stop, err := serve()
		if err != nil {
			return nil, err
		}
		rg.stop = stop
		rem, err := lfi.DialExecutor(addr)
		if err != nil {
			stop()
			return nil, err
		}
		backend = rem
	case tr != nil:
		backend = lfi.NewLocalExecutor(runtime.GOMAXPROCS(0))
	}
	if backend != nil {
		if tr != nil {
			backend = tr.wrap(backend)
		}
		opts = append(opts, lfi.WithExecutor(backend))
	}
	sess, err := lfi.NewSession(opts...)
	if err != nil {
		if backend != nil {
			backend.Close()
		}
		rg.close()
		return nil, err
	}
	rg.sess = sess
	for _, sys := range lfi.Systems() {
		cfg := explore.ConfigForSystem(sys)
		explore.Generate(cfg)
		if _, err := explore.Lint(cfg); err != nil {
			rg.close()
			return nil, err
		}
	}
	return rg, nil
}

func (rg *rig) close() {
	if rg.sess != nil {
		rg.sess.Close()
	}
	if rg.stop != nil {
		rg.stop()
	}
}

// serve starts an in-process `lfi serve` worker on a loopback port with
// GOMAXPROCS workers. stop cancels it and waits until it has returned.
func serve() (addr string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		// It returns ctx.Err() once stopped; connection errors are
		// reported to the client, which fails the campaign.
		_ = lfi.ServeExecutor(ctx, ln, runtime.GOMAXPROCS(0), nil)
	}()
	return ln.Addr().String(), func() { cancel(); <-done }, nil
}

// --- checks ------------------------------------------------------------------

// fingerprint is what every campaign of one workload must reproduce.
type fingerprint struct {
	executed, replayed int
	bugs               string // sorted system/signature list
}

// checker validates campaigns against the stock bugs and against the
// workload's first campaign.
type checker struct {
	resume bool // a resume must execute nothing
	ref    *fingerprint
}

func (c *checker) check(res *lfi.ExploreAllResult, err error) error {
	if err != nil {
		return err
	}
	if missing := missingStockBugs(res); len(missing) > 0 {
		return fmt.Errorf("stock bugs not found: %s", strings.Join(missing, ", "))
	}
	if c.resume && res.Executed > 0 {
		return fmt.Errorf("resume executed %d tests, want 0", res.Executed)
	}
	fp := fingerprintOf(res)
	if c.ref == nil {
		c.ref = &fp
		return nil
	}
	if fp != *c.ref {
		return fmt.Errorf("campaign differs from the first: %d executed, %d replayed, %d bugs; first had %d, %d, %d",
			fp.executed, fp.replayed, strings.Count(fp.bugs, "\n"), c.ref.executed, c.ref.replayed, strings.Count(c.ref.bugs, "\n"))
	}
	return nil
}

func fingerprintOf(res *lfi.ExploreAllResult) fingerprint {
	sigs := make([]string, len(res.Bugs))
	for i, b := range res.Bugs {
		sigs[i] = b.System + "/" + b.Signature + "\n"
	}
	sort.Strings(sigs)
	return fingerprint{executed: res.Executed, replayed: res.Replayed, bugs: strings.Join(sigs, "")}
}

// missingStockBugs lists the advertised stock bugs no crash signature of
// the campaign matches.
func missingStockBugs(res *lfi.ExploreAllResult) []string {
	var missing []string
	for _, sys := range lfi.Systems() {
		for _, sb := range sys.StockBugs {
			found := false
			for _, b := range res.Bugs {
				if b.System == sys.Name && b.IsCrash() && strings.Contains(b.Signature, sb.Match) {
					found = true
					break
				}
			}
			if !found {
				missing = append(missing, sys.Name+": "+sb.Match)
			}
		}
	}
	return missing
}

// peakRSS is the process's peak resident set so far, in MB.
func peakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) * 1024 / mb // Linux reports KB
}
