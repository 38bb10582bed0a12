// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§7), plus microbenchmarks of the injection fast path and
// the ablations called out in DESIGN.md. Each experiment benchmark
// regenerates its table/figure through internal/experiments and reports
// the headline numbers as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the paper end to end.
package lfi

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"lfi/internal/apps/minidb"
	"lfi/internal/apps/minivcs"
	"lfi/internal/apps/miniweb"
	"lfi/internal/callsite"
	"lfi/internal/controller"
	"lfi/internal/core"
	"lfi/internal/errno"
	"lfi/internal/experiments"
	"lfi/internal/explore"
	"lfi/internal/isa"
	"lfi/internal/libsim"
	"lfi/internal/libspec"
	"lfi/internal/profile"
	"lfi/internal/scenario"
	"lfi/internal/trigger"
)

// analyzedBinary is the binary the analyzer benchmarks run over.
func analyzedBinary() *isa.Binary {
	b, _ := minivcs.Binary()
	return b
}

// BenchmarkTable1BugHunt regenerates Table 1: the automatic bug-finding
// campaigns across all four target systems.
func BenchmarkTable1BugHunt(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table1(true)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(res.Bugs)), "bugs")
		b.ReportMetric(float64(res.Tests), "tests")
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
}

// BenchmarkTable2TriggerPrecision regenerates Table 2: precision of the
// three scenarios targeting the minidb double-unlock bug.
func BenchmarkTable2TriggerPrecision(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table2(50)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.Random, "random-%")
		b.ReportMetric(100*res.InFile, "infile-%")
		b.ReportMetric(100*res.AfterLock, "afterunlock-%")
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
}

// BenchmarkTable3Coverage regenerates Table 3: recovery-code coverage
// improvement from analyzer-generated scenarios.
func BenchmarkTable3Coverage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table3()
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			b.ReportMetric(row.AdditionalRecoveryPct(), row.System+"-rec-%")
		}
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
}

// BenchmarkTable4AnalyzerAccuracy regenerates Table 4: call-site
// analysis accuracy against ground truth.
func BenchmarkTable4AnalyzerAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Table4()
		correct, total := 0, 0
		for _, row := range res.Rows {
			correct += row.TP + row.TN
			total += row.Total()
		}
		b.ReportMetric(100*float64(correct)/float64(total), "accuracy-%")
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
}

// BenchmarkTable5WebOverhead regenerates Table 5: trigger-evaluation
// overhead on the miniweb server.
func BenchmarkTable5WebOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table5(500)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MaxOverheadPct(), "max-overhead-%")
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
}

// BenchmarkTable6OLTPOverhead regenerates Table 6: trigger-evaluation
// overhead on the minidb OLTP workload.
func BenchmarkTable6OLTPOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table6(200 * time.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MaxOverheadPct(), "max-overhead-%")
		b.ReportMetric(res.ReadOnly[0], "baseline-ro-tps")
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
}

// BenchmarkFigure3PBFTSlowdown regenerates Figure 3: PBFT slowdown
// under progressively worsening network conditions.
func BenchmarkFigure3PBFTSlowdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure3(8, 2)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Points) > 0 {
			b.ReportMetric(res.Points[len(res.Points)-1].Slowdown, "max-slowdown-x")
		}
		if !res.Monotone(0.25) {
			b.Logf("warning: series not monotone: %+v", res.Points)
		}
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
}

// BenchmarkDoSRotation regenerates the §7.3 DoS study.
func BenchmarkDoSRotation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.DoS(20)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.RotationDrop, "rotation-drop-x")
		b.ReportMetric(100*res.SilenceDelta, "silence-delta-%")
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
}

// BenchmarkAnalyzerEfficiency reproduces the §7.2 efficiency claim:
// analysis time per binary (the paper: 1-10 s for >100 sites; the
// synthetic binaries analyze in microseconds).
func BenchmarkAnalyzerEfficiency(b *testing.B) {
	libc := profile.ProfileBinary(libspec.BuildLibc())
	bin := analyzedBinary()
	a := &callsite.Analyzer{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := a.Analyze(bin, libc)
		if len(rep.Sites) == 0 {
			b.Fatal("no sites")
		}
	}
}

// BenchmarkProfiler measures the library profiler over libc.
func BenchmarkProfiler(b *testing.B) {
	bin := libspec.BuildLibc()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := profile.ProfileBinary(bin)
		if p.Func("read") == nil {
			b.Fatal("profile incomplete")
		}
	}
}

// --- microbenchmarks and ablations ------------------------------------------

// benchProc builds a process with one readable file.
func benchProc() (*libsim.C, *libsim.Thread) {
	c := libsim.New(1 << 20)
	c.MustWriteFile("/f", []byte("0123456789abcdef"))
	return c, c.NewThread("bench", "main")
}

// BenchmarkInterceptionBaseline measures a read() with no hook
// installed — the cost floor of the dispatch path.
func BenchmarkInterceptionBaseline(b *testing.B) {
	_, th := benchProc()
	fd := th.Open("/f", libsim.O_RDONLY)
	buf := make([]byte, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		th.Lseek(fd, 0)
		th.Read(fd, buf)
	}
}

// triggerStack builds a scenario with n never-firing triggers on read.
func triggerStack(b *testing.B, n int) *scenario.Scenario {
	bld := scenario.NewBuilder("stack")
	refs := make([]string, n)
	for i := 0; i < n; i++ {
		refs[i] = bld.Trigger(
			string(rune('a'+i)), "CallCountTrigger",
			scenario.IntArgs("n", 1<<40), // never reached
		)
	}
	bld.Observe("read", refs...)
	s, err := bld.Build()
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkTriggerEvaluation1 measures read() with one trigger.
func BenchmarkTriggerEvaluation1(b *testing.B) { benchTriggers(b, 1) }

// BenchmarkTriggerEvaluation5 measures read() with five conjunct
// triggers (short-circuit keeps only the first evaluating... see the
// ablation below for the difference).
func BenchmarkTriggerEvaluation5(b *testing.B) { benchTriggers(b, 5) }

func benchTriggers(b *testing.B, n int) {
	c, th := benchProc()
	rt, err := core.New(c, triggerStack(b, n))
	if err != nil {
		b.Fatal(err)
	}
	rt.Install()
	defer rt.Uninstall()
	fd := th.Open("/f", libsim.O_RDONLY)
	buf := make([]byte, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		th.Lseek(fd, 0)
		th.Read(fd, buf)
	}
}

// BenchmarkDispatchUninstrumented measures the pass-through fast path:
// a runtime is installed, but the dispatched function has no scenario
// entry, so the call must bail on the FuncID bitset without allocating
// (DESIGN.md "fast path": the §7.4 overhead floor).
func BenchmarkDispatchUninstrumented(b *testing.B) {
	c, th := benchProc()
	// Scenario touches write only; the benchmark dispatches read/lseek.
	bld := scenario.NewBuilder("uninstrumented")
	ref := bld.Trigger("t", "CallCountTrigger", scenario.IntArgs("n", 1<<40))
	bld.Inject("write", 0, -1, errno.ENOSPC, ref)
	s, err := bld.Build()
	if err != nil {
		b.Fatal(err)
	}
	rt, err := core.New(c, s)
	if err != nil {
		b.Fatal(err)
	}
	rt.Install()
	defer rt.Uninstall()
	fd := th.Open("/f", libsim.O_RDONLY)
	buf := make([]byte, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		th.Lseek(fd, 0)
		th.Read(fd, buf)
	}
}

// BenchmarkDispatchInstrumentedMiss measures a dispatched function that
// HAS scenario entries whose trigger evaluates false: the full trigger
// path runs, but no stack capture and no injection happen.
func BenchmarkDispatchInstrumentedMiss(b *testing.B) {
	c, th := benchProc()
	rt, err := core.New(c, triggerStack(b, 1))
	if err != nil {
		b.Fatal(err)
	}
	rt.Install()
	defer rt.Uninstall()
	fd := th.Open("/f", libsim.O_RDONLY)
	buf := make([]byte, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		th.Lseek(fd, 0)
		th.Read(fd, buf)
	}
}

// BenchmarkDispatchInstrumentedHit measures the injection path: every
// read fires the trigger, is failed with EIO, and is appended to the
// log (stack capture included — the paper's log records the call site).
func BenchmarkDispatchInstrumentedHit(b *testing.B) {
	c, th := benchProc()
	bld := scenario.NewBuilder("hit")
	ref := bld.Trigger("t", "CallCountTrigger", scenario.IntArgs("from", 1))
	bld.Inject("read", 3, -1, errno.EIO, ref)
	s, err := bld.Build()
	if err != nil {
		b.Fatal(err)
	}
	rt, err := core.New(c, s)
	if err != nil {
		b.Fatal(err)
	}
	rt.Install()
	defer rt.Uninstall()
	fd := th.Open("/f", libsim.O_RDONLY)
	buf := make([]byte, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if th.Read(fd, buf) != -1 {
			b.Fatal("injection missed")
		}
	}
	b.StopTimer()
	if got := rt.Injections(); got != uint64(b.N) {
		b.Fatalf("injections = %d, want %d", got, b.N)
	}
}

// BenchmarkCampaignParallel compares the sequential campaign engine
// against the worker-pool engine on the Table 1 minidb workload
// (independent full-suite runs under random close faults, one per
// scenario slot).
//
// Two regimes are measured. "cpu" is the raw in-memory suite: it scales
// with physical cores, so on a single-core box workers-8 only shows the
// pool's overhead. "io-2ms" charges each run a 2ms blocking wait — the
// stand-in for the process spawn + disk I/O that every run of the
// paper's real controller pays — which the worker pool overlaps even on
// one core.
func BenchmarkCampaignParallel(b *testing.B) {
	s, err := ParseScenarioString(`<scenario name="random-close-10">
	  <trigger id="rnd" class="RandomTrigger"><args><probability>0.1</probability></args></trigger>
	  <function name="close" return="-1" errno="EIO"><reftrigger ref="rnd" /></function>
	</scenario>`)
	if err != nil {
		b.Fatal(err)
	}
	const tests = 32
	scens := make([]*Scenario, tests)
	for i := range scens {
		scens[i] = s
	}
	withLatency := func(tgt Target, d time.Duration) Target {
		inner := tgt.Start
		tgt.Start = func() (*Process, func() error) {
			c, workload := inner()
			return c, func() error {
				time.Sleep(d)
				return workload()
			}
		}
		return tgt
	}
	for _, reg := range []struct {
		name string
		tgt  Target
	}{
		{"cpu", minidb.Target()},
		{"io-2ms", withLatency(minidb.Target(), 2*time.Millisecond)},
	} {
		for _, workers := range []int{1, 8} {
			b.Run(fmt.Sprintf("%s/workers-%d", reg.name, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					outs, err := controller.CampaignParallel(reg.tgt, scens, workers, RuntimeSeed(1))
					if err != nil {
						b.Fatal(err)
					}
					if len(outs) != tests {
						b.Fatalf("%d outcomes", len(outs))
					}
				}
				b.ReportMetric(float64(tests)*float64(b.N)/b.Elapsed().Seconds(), "tests/s")
			})
		}
	}
}

// BenchmarkArenaRunReuse measures one full minidb suite run through the
// controller in steady state — the per-worker arena path. The app
// image, runtime overlay, and dispatch scratch are all pooled and
// recycled between runs, so allocs/op here is the per-run floor every
// campaign worker pays; the benchgate holds it flat.
func BenchmarkArenaRunReuse(b *testing.B) {
	s, err := ParseScenarioString(`<scenario name="arena-close-10">
	  <trigger id="rnd" class="RandomTrigger"><args><probability>0.1</probability></args></trigger>
	  <function name="close" return="-1" errno="EIO"><reftrigger ref="rnd" /></function>
	</scenario>`)
	if err != nil {
		b.Fatal(err)
	}
	tgt := minidb.Target()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := controller.RunOne(tgt, s, RuntimeSeed(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "tests/s")
}

// BenchmarkSystemRun measures one controller run of every registered
// system: controller.RunOne, round-robin over the system's first
// generated candidates, on one goroutine. It is the per-system run-loop
// cost the explorer pays per test — for pbft and raft that includes
// resetting the pooled harness and replaying the message trace — so
// allocs/op and tests/s here gate every system, not only minidb. Each
// scenario compiles on its first run only; BenchmarkSystemRunOnce
// measures the explorer's path, where every run compiles.
func BenchmarkSystemRun(b *testing.B) {
	const firstCandidates = 32
	for _, sys := range Systems() {
		cands := explore.Generate(explore.ConfigForSystem(sys))
		if len(cands) == 0 {
			b.Fatalf("%s: no candidates", sys.Name)
		}
		cands = cands[:min(len(cands), firstCandidates)]
		tgt := sys.Target()
		b.Run(sys.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := controller.RunOne(tgt, cands[i%len(cands)].Scenario, RuntimeSeed(1)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "tests/s")
		})
	}
}

// BenchmarkSystemRunOnce is BenchmarkSystemRun on the path the explorer
// takes: every iteration runs a *Scenario that has never run before, so
// every run compiles its scenario and none finds a compiled program to
// reuse. The scenarios are the same first candidates, re-parsed from
// their canonical XML outside the timer — in bounded chunks, so memory
// stays flat however large b.N grows.
func BenchmarkSystemRunOnce(b *testing.B) {
	const firstCandidates, chunk = 32, 4096
	for _, sys := range Systems() {
		cands := explore.Generate(explore.ConfigForSystem(sys))
		if len(cands) == 0 {
			b.Fatalf("%s: no candidates", sys.Name)
		}
		cands = cands[:min(len(cands), firstCandidates)]
		docs := make([]string, len(cands))
		for i, c := range cands {
			docs[i] = string(c.Scenario.Serialize())
		}
		tgt := sys.Target()
		b.Run(sys.Name, func(b *testing.B) {
			b.ReportAllocs()
			fresh := make([]*scenario.Scenario, 0, min(b.N, chunk))
			parse := func(from int) {
				fresh = fresh[:0]
				for i := from; i < b.N && len(fresh) < cap(fresh); i++ {
					s, err := scenario.ParseString(docs[i%len(docs)])
					if err != nil {
						b.Fatal(err)
					}
					fresh = append(fresh, s)
				}
			}
			parse(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i > 0 && i%chunk == 0 {
					b.StopTimer()
					parse(i)
					b.StartTimer()
				}
				if _, err := controller.RunOne(tgt, fresh[i%chunk], RuntimeSeed(1)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "tests/s")
		})
	}
}

// BenchmarkAblationShortCircuit quantifies §4.3's short-circuit
// optimization: a 5-trigger conjunction whose FIRST trigger is false
// versus one whose first four are true (so all five evaluate).
func BenchmarkAblationShortCircuit(b *testing.B) {
	run := func(b *testing.B, firstFalse bool) {
		c, th := benchProc()
		bld := scenario.NewBuilder("ablation")
		first := "CallCountTrigger"
		args := scenario.IntArgs("n", 1<<40) // never true
		if !firstFalse {
			args = scenario.IntArgs("from", 1) // always true
		}
		refs := []string{bld.Trigger("t0", first, args)}
		for i := 1; i < 4; i++ {
			refs = append(refs, bld.Trigger(
				string(rune('a'+i)), "CallCountTrigger", scenario.IntArgs("from", 1)))
		}
		refs = append(refs, bld.Trigger("last", "CallCountTrigger", scenario.IntArgs("n", 1<<40)))
		bld.Observe("read", refs...)
		s, err := bld.Build()
		if err != nil {
			b.Fatal(err)
		}
		rt, err := core.New(c, s)
		if err != nil {
			b.Fatal(err)
		}
		rt.Install()
		defer rt.Uninstall()
		fd := th.Open("/f", libsim.O_RDONLY)
		buf := make([]byte, 8)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			th.Lseek(fd, 0)
			th.Read(fd, buf)
		}
		b.ReportMetric(float64(rt.Evals())/float64(b.N), "evals/call")
	}
	b.Run("first-false", func(b *testing.B) { run(b, true) })
	b.Run("all-evaluate", func(b *testing.B) { run(b, false) })
}

// BenchmarkAblationWindowSize measures analyzer cost and finding
// quality across CFG window sizes (DESIGN.md calls the 100-instruction
// window out as a design choice worth quantifying).
func BenchmarkAblationWindowSize(b *testing.B) {
	libc := profile.ProfileBinary(libspec.BuildLibc())
	bin := analyzedBinary()
	for _, w := range []int{10, 50, 100, 400} {
		b.Run(window(w), func(b *testing.B) {
			a := &callsite.Analyzer{Window: w}
			var unchecked int
			for i := 0; i < b.N; i++ {
				rep := a.Analyze(bin, libc)
				_, _, not := rep.ByClass()
				unchecked = len(not)
			}
			b.ReportMetric(float64(unchecked), "unchecked-sites")
		})
	}
}

func window(w int) string {
	switch w {
	case 10:
		return "window-10"
	case 50:
		return "window-50"
	case 100:
		return "window-100"
	default:
		return "window-400"
	}
}

// BenchmarkScenarioParse measures the XML language front end.
func BenchmarkScenarioParse(b *testing.B) {
	doc := `<scenario name="p">
	  <trigger id="readTrig2" class="ReadPipe"><args><low>1024</low><high>4096</high></args></trigger>
	  <trigger id="mutexTrig" class="WithMutex" />
	  <function name="read" argc="3" return="-1" errno="EINVAL">
	    <reftrigger ref="readTrig2" /><reftrigger ref="mutexTrig" />
	  </function>
	</scenario>`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scenario.ParseString(doc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScenarioBuild measures Builder.Build of a scenario of the
// explorer's call-stack-window shape — the two-trigger scenario it
// breeds most: validation, the canonical XML serialization and its
// content hash. It is no longer the explorer's launch path, which
// assembles an unsealed literal of the shape and leaves validation to
// the worker's compile; it remains the cost of a built scenario.
func BenchmarkScenarioBuild(b *testing.B) {
	frame := &trigger.Args{Name: "args", Children: []*trigger.Args{{
		Name: "frame",
		Children: []*trigger.Args{
			{Name: "module", Text: "raft"},
			{Name: "offset", Text: "1a4"},
		},
	}}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bld := scenario.NewBuilder("explore-swin-raft-recvfrom-1a4-2-4--1-EAGAIN")
		cs := bld.Trigger("1a4", "CallStackTrigger", frame)
		win := bld.Trigger("swin", "SiteCountTrigger", scenario.BurstArgs(2, 4))
		bld.Inject("recvfrom", 0, -1, errno.EAGAIN, cs, win)
		s, err := bld.Build()
		if err != nil {
			b.Fatal(err)
		}
		if s.ContentHash() == "" {
			b.Fatal("no content hash")
		}
	}
}

// exploreConfig returns a registered system's exploration config.
func exploreConfig(tb testing.TB, app string) explore.Config {
	tb.Helper()
	sys, ok := LookupSystem(app)
	if !ok {
		tb.Fatalf("%s not registered", app)
	}
	return explore.ConfigForSystem(sys)
}

// BenchmarkExploreCandidates measures candidate enumeration: the
// call-site analysis plus scenario construction, canonicalization and
// content hashing for the full minidb fault space — the explorer's
// per-campaign startup cost, paid again on every resume before a
// single test runs. Reports the space size so a generation change that
// silently shrinks coverage shows up next to its speed.
func BenchmarkExploreCandidates(b *testing.B) {
	cfg := exploreConfig(b, "minidb")
	b.ReportAllocs()
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		cands := explore.Generate(cfg)
		if len(cands) == 0 {
			b.Fatal("no candidates")
		}
		n = len(cands)
	}
	b.ReportMetric(float64(n), "candidates")
}

// BenchmarkLintAnalyze measures the whole-program interprocedural
// analysis cold (no stored summaries): per-function summarization,
// SCC condensation, the RetChecked fixpoint and final classification
// for the full minivcs image — the `lfi lint` unit cost, also paid by
// the explorer at campaign start to seed its static prior.
func BenchmarkLintAnalyze(b *testing.B) {
	cfg := exploreConfig(b, "minivcs")
	b.ReportAllocs()
	b.ResetTimer()
	var sites int
	for i := 0; i < b.N; i++ {
		rep, err := explore.Lint(cfg)
		if err != nil {
			b.Fatal(err)
		}
		sites = len(rep.Sites)
	}
	b.ReportMetric(float64(sites), "sites")
}

// BenchmarkMiniwebRequest measures one static request end to end (the
// Table 5 workload unit).
func BenchmarkMiniwebRequest(b *testing.B) {
	app := miniweb.New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := app.ServeStatic("/www/index.html", miniweb.MethodGET); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecutorBatchLocal measures the execution-backend layer's
// dispatch overhead on the in-process path: one 32-scenario minidb
// batch through the local Executor (the adapter every Session uses by
// default). This is the number the executor gate in CI watches — the
// backend abstraction must not tax the hot local path.
func BenchmarkExecutorBatchLocal(b *testing.B) {
	s, err := ParseScenarioString(`<scenario name="bench-exec-read">
	  <trigger id="nth" class="CallCountTrigger"><args><n>3</n></args></trigger>
	  <function name="read" return="-1" errno="EIO"><reftrigger ref="nth" /></function>
	</scenario>`)
	if err != nil {
		b.Fatal(err)
	}
	const tests = 32
	scens := make([]*Scenario, tests)
	for i := range scens {
		scens[i] = s
	}
	e := NewLocalExecutor(4)
	batch := &ExecBatch{System: "minidb", Scenarios: scens}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		outs, err := e.Run(context.Background(), batch)
		if err != nil || len(outs) != tests {
			b.Fatalf("%d outcomes, err %v", len(outs), err)
		}
	}
	b.ReportMetric(float64(tests)*float64(b.N)/b.Elapsed().Seconds(), "tests/s")
}

// BenchmarkExecutorBatchRemote is the same batch through a loopback
// `lfi serve` TCP worker: binary scenario records (the 32 copies of one
// scenario travel as one record and 31 back-references), length-prefixed
// binary framing and transport, per batch. The gap to
// BenchmarkExecutorBatchLocal is the wire tax a remote worker must
// amortize with batch size — the reason the fleet's speed shares route
// big batches remote and small hot batches locally.
func BenchmarkExecutorBatchRemote(b *testing.B) {
	s, err := ParseScenarioString(`<scenario name="bench-exec-read">
	  <trigger id="nth" class="CallCountTrigger"><args><n>3</n></args></trigger>
	  <function name="read" return="-1" errno="EIO"><reftrigger ref="nth" /></function>
	</scenario>`)
	if err != nil {
		b.Fatal(err)
	}
	const tests = 32
	scens := make([]*Scenario, tests)
	for i := range scens {
		scens[i] = s
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go ServeExecutor(ctx, ln, 4, nil)
	e, err := DialExecutor(ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	batch := &ExecBatch{System: "minidb", Scenarios: scens}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		outs, err := e.Run(context.Background(), batch)
		if err != nil || len(outs) != tests {
			b.Fatalf("%d outcomes, err %v", len(outs), err)
		}
	}
	b.ReportMetric(float64(tests)*float64(b.N)/b.Elapsed().Seconds(), "tests/s")
}

// delayedRelay proxies TCP bytes to target, adding a fixed one-way
// latency to every segment — a simulated LAN hop. Pipelining is about
// latency: on raw loopback the wire tax is single-digit microseconds
// (see BenchmarkWireDecodeResponse) and depth-1 already matches
// depth-4, so the pipelining benchmark measures across this relay. It
// sleeps once per segment it reads, so a frame sent in one write pays
// the hop once.
func delayedRelay(b *testing.B, target string, delay time.Duration) string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", target)
			if err != nil {
				c.Close()
				continue
			}
			pipe := func(dst, src net.Conn) {
				defer dst.Close()
				defer src.Close()
				buf := make([]byte, 64<<10)
				for {
					n, err := src.Read(buf)
					if n > 0 {
						time.Sleep(delay)
						if _, werr := dst.Write(buf[:n]); werr != nil {
							return
						}
					}
					if err != nil {
						return
					}
				}
			}
			go pipe(up, c)
			go pipe(c, up)
		}
	}()
	return ln.Addr().String()
}

// BenchmarkFleetPipelined measures what concurrent Run calls on one
// remote connection buy with realistic latency (a relay adds 200µs each
// way): the same 32-scenario minidb coverage batch from one caller at a
// time (call-and-response — every round trip sits on the worker's
// critical path and it idles between batches) versus four callers at
// once, which keep the worker saturated while frames are in the air.
// The explorer's two in-flight batches are this kind of depth; the
// fleet does not slice a batch into several requests, so this does not
// measure fleet slicing. The depth-4 tests/s over depth-1 is the
// pipelining win BENCH_9 records.
func BenchmarkFleetPipelined(b *testing.B) {
	s, err := ParseScenarioString(`<scenario name="bench-exec-read">
	  <trigger id="nth" class="CallCountTrigger"><args><n>3</n></args></trigger>
	  <function name="read" return="-1" errno="EIO"><reftrigger ref="nth" /></function>
	</scenario>`)
	if err != nil {
		b.Fatal(err)
	}
	const tests = 32
	scens := make([]*Scenario, tests)
	for i := range scens {
		scens[i] = s
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go ServeExecutor(ctx, ln, 4, nil)
	e, err := DialExecutor(delayedRelay(b, ln.Addr().String(), 200*time.Microsecond))
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	for _, depth := range []int{1, 4} {
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				errs := make(chan error, depth)
				for d := 0; d < depth; d++ {
					go func(seed int64) {
						outs, err := e.Run(context.Background(), &ExecBatch{System: "minidb", Seed: seed, Coverage: true, Scenarios: scens})
						if err == nil && len(outs) != tests {
							err = fmt.Errorf("%d outcomes", len(outs))
						}
						errs <- err
					}(int64(d))
				}
				for d := 0; d < depth; d++ {
					if err := <-errs; err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(tests*depth)*float64(b.N)/b.Elapsed().Seconds(), "tests/s")
		})
	}
}
