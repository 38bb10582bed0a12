package core

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"lfi/internal/errno"
	"lfi/internal/interpose"
	"lfi/internal/libsim"
	"lfi/internal/scenario"
)

func newProc() (*libsim.C, *libsim.Thread) {
	c := libsim.New(1 << 20)
	c.MustWriteFile("/f", []byte("hello"))
	return c, c.NewThread("test", "main")
}

func install(t *testing.T, c *libsim.C, doc string, opts ...Option) *Runtime {
	t.Helper()
	s, err := scenario.ParseString(doc)
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(c, s, opts...)
	if err != nil {
		t.Fatal(err)
	}
	r.Install()
	t.Cleanup(r.Uninstall)
	return r
}

func TestInjectOnNthCall(t *testing.T) {
	c, th := newProc()
	r := install(t, c, `<scenario>
	  <trigger id="n2" class="CallCountTrigger"><args><n>2</n></args></trigger>
	  <function name="read" argc="3" return="-1" errno="EINTR">
	    <reftrigger ref="n2" />
	  </function>
	</scenario>`)

	fd := th.Open("/f", libsim.O_RDONLY)
	buf := make([]byte, 2)
	if n := th.Read(fd, buf); n != 2 {
		t.Fatalf("first read injected early: %d", n)
	}
	if n := th.Read(fd, buf); n != -1 || th.Errno() != errno.EINTR {
		t.Fatalf("second read not injected: n=%d errno=%v", n, th.Errno())
	}
	if n := th.Read(fd, buf); n != 2 {
		t.Fatalf("third read wrong: %d (file offset must be unaffected by injection)", n)
	}
	if r.Injections() != 1 {
		t.Fatalf("injections = %d", r.Injections())
	}
}

func TestInjectionSkipsImplementation(t *testing.T) {
	c, th := newProc()
	install(t, c, `<scenario>
	  <trigger id="always" class="CallCountTrigger"><args><from>1</from></args></trigger>
	  <function name="unlink" return="-1" errno="EACCES">
	    <reftrigger ref="always" />
	  </function>
	</scenario>`)
	if th.Unlink("/f") != -1 || th.Errno() != errno.EACCES {
		t.Fatal("unlink not injected")
	}
	if _, ok := c.ReadFileRaw("/f"); !ok {
		t.Fatal("file was actually deleted despite injected failure")
	}
}

func TestEmptyScenarioTransparent(t *testing.T) {
	c, th := newProc()
	install(t, c, `<scenario></scenario>`)
	fd := th.Open("/f", libsim.O_RDONLY)
	buf := make([]byte, 5)
	if n := th.Read(fd, buf); n != 5 || string(buf) != "hello" {
		t.Fatalf("empty scenario perturbed read: %d %q", n, buf)
	}
}

func TestConjunctionSemantics(t *testing.T) {
	// Inject in read only while a mutex is held.
	c, th := newProc()
	install(t, c, `<scenario>
	  <trigger id="mtx" class="WithMutex" />
	  <trigger id="any" class="CallCountTrigger"><args><from>1</from></args></trigger>
	  <function name="read" argc="3" return="-1" errno="EIO">
	    <reftrigger ref="mtx" />
	    <reftrigger ref="any" />
	  </function>
	</scenario>`)
	fd := th.Open("/f", libsim.O_RDONLY)
	buf := make([]byte, 2)
	if th.Read(fd, buf) != 2 {
		t.Fatal("injected without mutex held")
	}
	m := c.MutexInit()
	th.MutexLock(m)
	if th.Read(fd, buf) != -1 || th.Errno() != errno.EIO {
		t.Fatal("not injected with mutex held")
	}
	th.MutexUnlock(m)
	if th.Read(fd, buf) != 2 {
		t.Fatal("injected after unlock")
	}
}

func TestDisjunctionViaRepeatedFunction(t *testing.T) {
	c, th := newProc()
	install(t, c, `<scenario>
	  <trigger id="n1" class="CallCountTrigger"><args><n>1</n></args></trigger>
	  <trigger id="n3" class="CallCountTrigger"><args><n>3</n></args></trigger>
	  <function name="read" return="-1" errno="EIO"><reftrigger ref="n1" /></function>
	  <function name="read" return="-1" errno="EINTR"><reftrigger ref="n3" /></function>
	</scenario>`)
	fd := th.Open("/f", libsim.O_RDONLY)
	buf := make([]byte, 1)
	if th.Read(fd, buf) != -1 || th.Errno() != errno.EIO {
		t.Fatal("call 1 should inject EIO")
	}
	if th.Read(fd, buf) != 1 {
		t.Fatal("call 2 should pass")
	}
	if th.Read(fd, buf) != -1 || th.Errno() != errno.EINTR {
		t.Fatal("call 3 should inject EINTR")
	}
}

func TestNegation(t *testing.T) {
	c, th := newProc()
	install(t, c, `<scenario>
	  <trigger id="mtx" class="WithMutex" />
	  <function name="read" return="-1" errno="EIO">
	    <reftrigger ref="mtx" negate="true" />
	  </function>
	</scenario>`)
	fd := th.Open("/f", libsim.O_RDONLY)
	buf := make([]byte, 1)
	if th.Read(fd, buf) != -1 {
		t.Fatal("negated WithMutex should inject without lock")
	}
	m := c.MutexInit()
	th.MutexLock(m)
	if th.Read(fd, buf) == -1 && th.Errno() == errno.EIO {
		t.Fatal("negated WithMutex injected while locked")
	}
	th.MutexUnlock(m)
}

func TestObservationalAssociationFeedsState(t *testing.T) {
	// The CloseAfterUnlock trigger observes unlocks through an
	// observational association and injects only into close.
	c, th := newProc()
	install(t, c, `<scenario>
	  <trigger id="cau" class="CloseAfterUnlock"><args><distance>2</distance></args></trigger>
	  <function name="pthread_mutex_unlock" return="unused" errno="unused">
	    <reftrigger ref="cau" />
	  </function>
	  <function name="close" return="-1" errno="EIO">
	    <reftrigger ref="cau" />
	  </function>
	</scenario>`)
	fd := th.Open("/f", libsim.O_RDONLY)
	// close before any unlock: passes through.
	if th.Close(fd) != 0 {
		t.Fatal("close before unlock was injected")
	}
	m := c.MutexInit()
	th.MutexLock(m)
	th.MutexUnlock(m)
	fd = th.Open("/f", libsim.O_RDONLY)
	if th.Close(fd) != -1 || th.Errno() != errno.EIO {
		t.Fatal("close after unlock not injected")
	}
}

func TestSingletonInConjunction(t *testing.T) {
	c, th := newProc()
	install(t, c, `<scenario>
	  <trigger id="always" class="CallCountTrigger"><args><from>1</from></args></trigger>
	  <trigger id="once" class="SingletonTrigger" />
	  <function name="read" return="-1" errno="EIO">
	    <reftrigger ref="always" />
	    <reftrigger ref="once" />
	  </function>
	</scenario>`)
	fd := th.Open("/f", libsim.O_RDONLY)
	buf := make([]byte, 1)
	if th.Read(fd, buf) != -1 {
		t.Fatal("first read should inject")
	}
	for i := 0; i < 5; i++ {
		if th.Read(fd, buf) == -1 {
			t.Fatal("singleton injected twice")
		}
	}
}

func TestShortCircuitSkipsLaterTriggers(t *testing.T) {
	// Singleton placed after an n-th-call trigger must not burn its
	// one shot on calls where the first trigger is false (§4.3).
	c, th := newProc()
	install(t, c, `<scenario>
	  <trigger id="n3" class="CallCountTrigger"><args><n>3</n></args></trigger>
	  <trigger id="once" class="SingletonTrigger" />
	  <function name="read" return="-1" errno="EIO">
	    <reftrigger ref="n3" />
	    <reftrigger ref="once" />
	  </function>
	</scenario>`)
	fd := th.Open("/f", libsim.O_RDONLY)
	buf := make([]byte, 1)
	th.Read(fd, buf)
	th.Read(fd, buf)
	if th.Read(fd, buf) != -1 {
		t.Fatal("third read should inject: singleton was evaluated too early")
	}
}

func TestMaxInjections(t *testing.T) {
	c, th := newProc()
	r := install(t, c, `<scenario>
	  <trigger id="always" class="CallCountTrigger"><args><from>1</from></args></trigger>
	  <function name="read" return="-1" errno="EIO"><reftrigger ref="always" /></function>
	</scenario>`, WithMaxInjections(2))
	fd := th.Open("/f", libsim.O_RDONLY)
	buf := make([]byte, 1)
	injected := 0
	for i := 0; i < 6; i++ {
		if th.Read(fd, buf) == -1 {
			injected++
		}
	}
	if injected != 2 || r.Injections() != 2 {
		t.Fatalf("injected %d (counter %d), want 2", injected, r.Injections())
	}
}

func TestLogRecords(t *testing.T) {
	c, th := newProc()
	r := install(t, c, `<scenario>
	  <trigger id="n2" class="CallCountTrigger"><args><n>2</n></args></trigger>
	  <function name="read" return="-1" errno="EINTR"><reftrigger ref="n2" /></function>
	</scenario>`)
	pop := th.Enter("app", "loader", 0x1234)
	fd := th.Open("/f", libsim.O_RDONLY)
	buf := make([]byte, 1)
	th.Read(fd, buf)
	th.Read(fd, buf)
	pop()
	recs := r.Log().Records()
	if len(recs) != 1 {
		t.Fatalf("%d records", len(recs))
	}
	rec := recs[0]
	if rec.Func != "read" || rec.Retval != -1 || rec.Errno != errno.EINTR || rec.Count != 2 {
		t.Fatalf("record %+v", rec)
	}
	if len(rec.Triggers) != 1 || rec.Triggers[0] != "n2" {
		t.Fatalf("trigger ids %v", rec.Triggers)
	}
	found := false
	for _, f := range rec.Stack {
		if f.Func == "loader" && f.Offset == 0x1234 {
			found = true
		}
	}
	if !found {
		t.Fatalf("stack lost: %v", rec.Stack)
	}
	if !strings.Contains(r.Log().String(), "inject read -> -1 errno=EINTR") {
		t.Fatalf("log text:\n%s", r.Log().String())
	}
}

func TestReplayScenarioReproducesInjection(t *testing.T) {
	c, th := newProc()
	r := install(t, c, `<scenario>
	  <trigger id="n3" class="CallCountTrigger"><args><n>3</n></args></trigger>
	  <function name="read" return="-1" errno="EIO"><reftrigger ref="n3" /></function>
	</scenario>`)
	fd := th.Open("/f", libsim.O_RDONLY)
	buf := make([]byte, 1)
	for i := 0; i < 4; i++ {
		th.Read(fd, buf)
	}
	rec := r.Log().Records()[0]
	r.Uninstall()

	// Fresh process, replay scenario: same injection on the same call.
	c2 := libsim.New(1 << 20)
	c2.MustWriteFile("/f", []byte("hello"))
	th2 := c2.NewThread("test", "main")
	rep, err := New(c2, rec.ReplayScenario())
	if err != nil {
		t.Fatal(err)
	}
	rep.Install()
	defer rep.Uninstall()
	fd2 := th2.Open("/f", libsim.O_RDONLY)
	results := make([]int64, 4)
	for i := range results {
		results[i] = th2.Read(fd2, buf)
	}
	if results[2] != -1 || results[0] == -1 || results[1] == -1 || results[3] == -1 {
		t.Fatalf("replay results %v, want injection only on call 3", results)
	}
}

func TestRandomSeedReproducible(t *testing.T) {
	run := func(seed int64) []int64 {
		c := libsim.New(1 << 20)
		c.MustWriteFile("/f", []byte("hello"))
		th := c.NewThread("test", "main")
		s, _ := scenario.ParseString(`<scenario>
		  <trigger id="rnd" class="RandomTrigger"><args><probability>0.5</probability></args></trigger>
		  <function name="read" return="-1" errno="EIO"><reftrigger ref="rnd" /></function>
		</scenario>`)
		r, _ := New(c, s, WithSeed(seed))
		r.Install()
		defer r.Uninstall()
		fd := th.Open("/f", libsim.O_RDONLY)
		buf := make([]byte, 1)
		out := make([]int64, 32)
		for i := range out {
			out[i] = th.Read(fd, buf)
		}
		return out
	}
	a, b := run(7), run(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d", i)
		}
	}
	cDiff := run(8)
	same := true
	for i := range a {
		if a[i] != cDiff[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical outcomes (suspicious)")
	}
}

func TestMisconfiguredTriggerNeverFires(t *testing.T) {
	c, th := newProc()
	r := install(t, c, `<scenario>
	  <trigger id="bad" class="CallCountTrigger" />
	  <function name="read" return="-1" errno="EIO"><reftrigger ref="bad" /></function>
	</scenario>`)
	fd := th.Open("/f", libsim.O_RDONLY)
	buf := make([]byte, 1)
	if th.Read(fd, buf) == -1 {
		t.Fatal("misconfigured trigger injected")
	}
	if len(r.Log().TriggerErrors()) != 1 {
		t.Fatal("init error not surfaced in log")
	}
}

func TestTriggerInstanceAccess(t *testing.T) {
	c, _ := newProc()
	r := install(t, c, `<scenario>
	  <trigger id="once" class="SingletonTrigger" />
	  <function name="read" return="-1" errno="EIO"><reftrigger ref="once" /></function>
	</scenario>`)
	tr, err := r.TriggerInstance("once")
	if err != nil || tr == nil {
		t.Fatalf("TriggerInstance: %v", err)
	}
	if _, err := r.TriggerInstance("ghost"); err == nil {
		t.Fatal("unknown instance id accepted")
	}
}

func TestValidateRejectedAtNew(t *testing.T) {
	c, _ := newProc()
	s, _ := scenario.ParseString(`<scenario>
	  <function name="read" return="-1" errno="EIO"><reftrigger ref="ghost" /></function>
	</scenario>`)
	if _, err := New(c, s); err == nil {
		t.Fatal("invalid scenario accepted by New")
	}
}

const coinReadDoc = `<scenario name="coin-read">
  <trigger id="rnd" class="RandomTrigger"><args><probability>0.5</probability></args></trigger>
  <function name="read" return="-1" errno="EIO"><reftrigger ref="rnd" /></function>
</scenario>`

// coinReads arms r for p under seed — a nil r is acquired from the
// process-wide pool — performs 64 reads through it and returns the
// runtime (not released) with the read results: the RandomTrigger's
// draw sequence, as the workload sees it.
func coinReads(t *testing.T, p *Program, r *Runtime, seed int64) (*Runtime, []int64) {
	t.Helper()
	c, th := newProc()
	if r == nil {
		r = p.acquire(c, WithSeed(seed))
	} else {
		p.bind(r, c, WithSeed(seed))
	}
	r.Install()
	defer r.Uninstall()
	fd := th.Open("/f", libsim.O_RDONLY)
	buf := make([]byte, 1)
	out := make([]int64, 64)
	for i := range out {
		out[i] = th.Read(fd, buf)
	}
	return r, out
}

func compileDoc(t *testing.T, doc string) *Program {
	t.Helper()
	s, err := scenario.ParseString(doc)
	if err != nil {
		t.Fatal(err)
	}
	p, err := compile(s) // unmemoized: a program no other test shares
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestPooledRuntimeDrawsMatchFresh: a runtime recycled from the pool
// carries a source seeded and advanced by its previous run; its first
// draw must reseed it, so it replays exactly what a fresh runtime draws
// for the same seed.
func TestPooledRuntimeDrawsMatchFresh(t *testing.T) {
	const seed, other = 7, 8
	_, fresh := coinReads(t, compileDoc(t, coinReadDoc), new(Runtime), seed)
	_, otherSeq := coinReads(t, compileDoc(t, coinReadDoc), new(Runtime), other)
	if slices.Equal(fresh, otherSeq) {
		t.Fatal("seeds 7 and 8 drew identical sequences")
	}

	p := compileDoc(t, coinReadDoc)
	for attempt := 0; attempt < 100; attempt++ {
		prev, _ := coinReads(t, p, nil, other)
		prev.Release()
		r, pooled := coinReads(t, p, nil, seed)
		if r != prev {
			r.Release()
			continue // the pool dropped it (it may, e.g. under -race)
		}
		if !slices.Equal(pooled, fresh) {
			t.Fatalf("pooled runtime drew %v, fresh runtime %v", pooled, fresh)
		}
		return
	}
	t.Skip("the pool never handed a runtime back")
}

// TestNoDrawNoSource: a scenario without a RandomTrigger never pays for
// building or seeding a random source.
func TestNoDrawNoSource(t *testing.T) {
	p := compileDoc(t, `<scenario>
	  <trigger id="n2" class="CallCountTrigger"><args><n>2</n></args></trigger>
	  <function name="read" return="-1" errno="EIO"><reftrigger ref="n2" /></function>
	</scenario>`)
	c, th := newProc()
	r := new(Runtime) // a pooled runtime may carry an earlier run's source
	p.bind(r, c, WithSeed(3))
	r.Install()
	fd := th.Open("/f", libsim.O_RDONLY)
	buf := make([]byte, 1)
	for i := 0; i < 4; i++ {
		th.Read(fd, buf)
	}
	r.Uninstall()
	if r.Injections() != 1 {
		t.Fatalf("injections = %d, want 1", r.Injections())
	}
	if r.rng != nil {
		t.Fatal("a run without random triggers built a random source")
	}
}

// Two scenarios of different sizes for the shared-pool tests. The big
// one declares four triggers — a coin on read, a third-write count
// composed with a singleton, and one whose Init fails — and the small
// one a single coin, so a runtime moving between them has to shrink
// and regrow its instance table.
const (
	bigDoc = `<scenario name="big">
  <trigger id="n3" class="CallCountTrigger"><args><n>3</n></args></trigger>
  <trigger id="once" class="SingletonTrigger" />
  <trigger id="bad" class="CallCountTrigger" />
  <trigger id="rnd" class="RandomTrigger"><args><probability>0.5</probability></args></trigger>
  <function name="read" return="-1" errno="EIO"><reftrigger ref="rnd" /></function>
  <function name="write" return="-1" errno="ENOSPC"><reftrigger ref="n3" /><reftrigger ref="once" /></function>
  <function name="lseek" return="-1" errno="EINVAL"><reftrigger ref="bad" /></function>
</scenario>`
	smallDoc = `<scenario name="small">
  <trigger id="rnd" class="RandomTrigger"><args><probability>0.5</probability></args></trigger>
  <function name="read" return="-1" errno="EIO"><reftrigger ref="rnd" /></function>
</scenario>`
)

// runObservation is everything a workload can observe of one run.
type runObservation struct {
	results    []int64
	injections uint64
	evals      uint64
	log        string
	instances  []string
}

// observeRun arms r for p under seed — a nil r is acquired from the
// process-wide pool — drives reads, writes and seeks through it, and
// records what the workload saw, the log, the counters and
// TriggerInstance's answer for every trigger id either scenario
// declares (and one neither does). The runtime comes back uninstalled
// but not released.
func observeRun(t *testing.T, p *Program, r *Runtime, seed int64) (*Runtime, runObservation) {
	t.Helper()
	c, th := newProc()
	if r == nil {
		r = p.acquire(c, WithSeed(seed))
	} else {
		p.bind(r, c, WithSeed(seed))
	}
	r.Install()
	fd := th.Open("/f", libsim.O_RDWR)
	buf := make([]byte, 1)
	var obs runObservation
	for i := 0; i < 24; i++ {
		obs.results = append(obs.results, th.Read(fd, buf))
		if i%3 == 0 {
			obs.results = append(obs.results, th.Write(fd, buf), th.Lseek(fd, 0))
		}
	}
	r.Uninstall()
	obs.injections, obs.evals, obs.log = r.Injections(), r.Evals(), r.Log().String()
	for _, id := range []string{"n3", "once", "bad", "rnd", "ghost"} {
		trig, err := r.TriggerInstance(id)
		obs.instances = append(obs.instances, fmt.Sprintf("%s: %T %v", id, trig, err))
	}
	return r, obs
}

// TestPooledRuntimeAcrossScenarios: a runtime released after a scenario
// with more trigger declarations and then acquired for one with fewer —
// and the other way round — draws, injects, logs and answers
// TriggerInstance exactly like a fresh runtime.
func TestPooledRuntimeAcrossScenarios(t *testing.T) {
	const seed = 11
	progs := map[string]*Program{"big": compileDoc(t, bigDoc), "small": compileDoc(t, smallDoc)}
	for _, order := range [][2]string{{"big", "small"}, {"small", "big"}, {"big", "big"}} {
		first, second := progs[order[0]], progs[order[1]]
		t.Run(order[0]+"-then-"+order[1], func(t *testing.T) {
			_, want := observeRun(t, second, new(Runtime), seed)
			if want.injections == 0 {
				t.Fatal("the workload injected nothing; the comparison would be vacuous")
			}
			for attempt := 0; attempt < 100; attempt++ {
				prev, _ := observeRun(t, first, nil, seed+1)
				prev.Release()
				r, got := observeRun(t, second, nil, seed)
				r.Release()
				if r != prev {
					continue // the pool dropped it (it may, e.g. under -race)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("recycled runtime observed\n%+v\nfresh runtime\n%+v", got, want)
				}
				return
			}
			t.Skip("the pool never handed a runtime back")
		})
	}
}

// TestPooledRuntimeHoldsNothing: a runtime in the pool keeps no
// program, process, log, decider or trigger reference alive.
func TestPooledRuntimeHoldsNothing(t *testing.T) {
	r, _ := observeRun(t, compileDoc(t, bigDoc), new(Runtime), 3)
	r.Release()
	if r.prog != nil || r.proc != nil || r.insp.c != nil || r.log != nil || r.decider != nil || r.env.Dist != nil {
		t.Fatalf("released runtime holds prog=%v proc=%v inspector=%v log=%v decider=%v dist=%v",
			r.prog, r.proc, r.insp.c, r.log, r.decider, r.env.Dist)
	}
	insts := r.insts[:cap(r.insts)]
	if len(insts) != 4 {
		t.Fatalf("released runtime kept %d instance slots, want the 4 it ran with", len(insts))
	}
	for i := range insts {
		in := &insts[i]
		if in.trig != nil || in.err != nil || in.decl != nil || in.env != nil || in.state.Load() != 0 {
			t.Fatalf("instance %d: trig=%v err=%v decl=%v env=%v state=%d after release",
				i, in.trig, in.err, in.decl, in.env, in.state.Load())
		}
	}
}

// TestCompileMemoizedOnScenario: every compile of one *Scenario —
// sequential or racing — returns the one Program stored on it, another
// *Scenario with the same content compiles its own, and a scenario that
// fails to compile stores nothing.
func TestCompileMemoizedOnScenario(t *testing.T) {
	b := scenario.NewBuilder("memo")
	b.Inject("read", 3, -1, errno.EIO, b.Trigger("n2", "CallCountTrigger", scenario.IntArgs("n", 2)))
	s, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if s.Compiled() != nil {
		t.Fatal("a freshly built scenario already carries a compiled program")
	}
	progs := make([]*Program, 8)
	var wg sync.WaitGroup
	for i := range progs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			progs[i], _ = Compile(s)
		}()
	}
	wg.Wait()
	for i, p := range progs {
		if p == nil || p != progs[0] {
			t.Fatalf("concurrent compile %d returned %p, compile 0 %p", i, p, progs[0])
		}
	}
	if again, _ := Compile(s); again != progs[0] || s.Compiled() != any(progs[0]) {
		t.Fatal("a repeated compile did not return the program memoized on the scenario")
	}

	twin, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p, _ := Compile(twin); p == progs[0] {
		t.Fatal("a second Build shares the first scenario's compiled program")
	}

	bad, err := scenario.ParseString(`<scenario>
	  <function name="read" return="-1" errno="EIO"><reftrigger ref="ghost" /></function>
	</scenario>`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(bad); err == nil || bad.Compiled() != nil {
		t.Fatalf("invalid scenario: err %v, memoized %v", err, bad.Compiled())
	}
}

// TestCompileGroupsEntriesByFunction: the compiled table holds one
// group per touched function, found by the rank of its bit even when
// the FuncIDs span several bitset words, and each group keeps the
// scenario order of its function's associations (the disjunction's
// evaluation order). Trigger references resolve to their declarations.
func TestCompileGroupsEntriesByFunction(t *testing.T) {
	// Function names interned past the first 64-bit word.
	var far []string
	for i := 0; i < 70; i++ {
		far = append(far, fmt.Sprintf("compile-groups-fn-%d", i))
		interpose.Intern(far[i])
	}
	b := scenario.NewBuilder("groups")
	a := b.Trigger("a", "CallCountTrigger", scenario.IntArgs("n", 1))
	z := b.Trigger("z", "CallCountTrigger", scenario.IntArgs("n", 2))
	order := []struct {
		fn  string
		ret int64
		ref string
	}{
		{far[69], -1, a}, {"read", -2, z}, {far[3], -3, a}, {"read", -4, a}, {far[69], -5, z},
	}
	for _, o := range order {
		b.Inject(o.fn, 0, o.ret, errno.EIO, o.ref)
	}
	s, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]int64{}
	for _, o := range order {
		want[o.fn] = append(want[o.fn], o.ret)
	}
	if len(p.entries) != len(want) {
		t.Fatalf("%d entry groups, want %d", len(p.entries), len(want))
	}
	for fn, rets := range want {
		id := interpose.Intern(fn)
		if p.touched[int(id)/64]&(1<<(uint(id)%64)) == 0 {
			t.Fatalf("%s (FuncID %d) not marked touched", fn, id)
		}
		var got []int64
		for _, en := range p.group(id) {
			got = append(got, en.retval)
			if d := p.decls[en.refs[0].decl]; d.id != en.ids[0] {
				t.Errorf("%s: reference %q resolved to declaration %q", fn, en.ids[0], d.id)
			}
		}
		if !slices.Equal(got, rets) {
			t.Errorf("%s: entries %v, want %v in scenario order", fn, got, rets)
		}
	}
	if i := p.decl("z"); i != 1 {
		t.Errorf("decl(z) = %d, want 1", i)
	}
	if i := p.decl("ghost"); i != -1 {
		t.Errorf("decl(ghost) = %d, want -1", i)
	}
}
