package core

import (
	"slices"
	"strings"
	"testing"

	"lfi/internal/errno"
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

// coinReads acquires a runtime for p under seed, performs 64 reads
// through it and returns the runtime (not released) with the read
// results — the RandomTrigger's draw sequence, as the workload sees it.
func coinReads(t *testing.T, p *Program, seed int64) (*Runtime, []int64) {
	t.Helper()
	c, th := newProc()
	r := p.acquire(c, WithSeed(seed))
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
	p, err := compile(s) // unmemoized: a program with an empty pool
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
	_, fresh := coinReads(t, compileDoc(t, coinReadDoc), seed)
	_, otherSeq := coinReads(t, compileDoc(t, coinReadDoc), other)
	if slices.Equal(fresh, otherSeq) {
		t.Fatal("seeds 7 and 8 drew identical sequences")
	}

	p := compileDoc(t, coinReadDoc)
	for attempt := 0; attempt < 100; attempt++ {
		prev, _ := coinReads(t, p, other)
		prev.Release()
		r, pooled := coinReads(t, p, seed)
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
	r := p.acquire(c, WithSeed(3))
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
