package lfi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// serveEnv, set in the environment of a copy of this test binary to a
// TCP listen address and a fleet registry address, separated by a
// space, makes that copy a serve worker of width 2 on the address,
// registered with the registry, instead of running the tests
// (spawnWorkerProcess).
const serveEnv = "LFI_TEST_SERVE"

// TestMain makes this test binary pool- and serve-capable: a copy
// re-executed by NewPoolExecutor with the worker env hook set becomes a
// pool worker, one with serveEnv set a serve worker.
func TestMain(m *testing.M) {
	MaybeExecWorker()
	if addr, registry, ok := strings.Cut(os.Getenv(serveEnv), " "); ok {
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "serve worker:", err)
			os.Exit(1)
		}
		fmt.Printf("listening %s\n", ln.Addr())
		if err := ServeRegistered(context.Background(), ln, 2, nil, registry, ""); err != nil {
			fmt.Fprintln(os.Stderr, "serve worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func sessionScenario(t *testing.T, doc string) *Scenario {
	t.Helper()
	s, err := ParseScenarioString(doc)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// mustSession builds a session, failing the test on option errors.
func mustSession(t *testing.T, opts ...SessionOption) *Session {
	t.Helper()
	sess, err := NewSession(opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sess.Close() })
	return sess
}

// TestSessionRun: Session.Run subsumes Campaign/CampaignParallel — it
// runs one test per scenario on the pool, streams every outcome to the
// observer, and reports outcomes in scenario order.
func TestSessionRun(t *testing.T) {
	sys, ok := LookupSystem("minivcs")
	if !ok {
		t.Fatal("minivcs not registered")
	}
	scens := []*Scenario{
		sessionScenario(t, `<scenario name="benign">
		  <trigger id="never" class="CallCountTrigger"><args><n>100000</n></args></trigger>
		  <function name="read" return="-1" errno="EINTR"><reftrigger ref="never" /></function>
		</scenario>`),
		sessionScenario(t, `<scenario name="first-malloc-fails">
		  <trigger id="all" class="CallCountTrigger"><args><from>1</from><to>200</to></args></trigger>
		  <function name="malloc" return="0" errno="ENOMEM"><reftrigger ref="all" /></function>
		</scenario>`),
	}

	var mu sync.Mutex
	streamed := 0
	sess := mustSession(t, WithWorkers(2), WithObserver(func(system string, o Outcome) {
		mu.Lock()
		defer mu.Unlock()
		if system != "minivcs" {
			t.Errorf("observer saw system %q", system)
		}
		streamed++
	}))
	rep, err := sess.Run(context.Background(), sys, scens)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Outcomes) != 2 || streamed != 2 {
		t.Fatalf("want 2 outcomes streamed and reported, got %d reported / %d streamed", len(rep.Outcomes), streamed)
	}
	if rep.Outcomes[0].Scenario.Name != "benign" || rep.Outcomes[1].Scenario.Name != "first-malloc-fails" {
		t.Fatalf("outcomes out of scenario order: %v, %v", rep.Outcomes[0], rep.Outcomes[1])
	}
	if rep.Outcomes[0].Failed() {
		t.Fatalf("benign scenario failed: %v", rep.Outcomes[0])
	}
	if !rep.Outcomes[1].Failed() || rep.Failures != 1 || len(rep.Bugs) != 1 {
		t.Fatalf("malloc-exhaustion run should be the one failure: %+v", rep)
	}

	// A cancelled context stops the session before any test starts.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err = sess.Run(ctx, sys, scens)
	if err != context.Canceled {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if len(rep.Outcomes) != 0 {
		t.Fatalf("cancelled session still ran %d tests", len(rep.Outcomes))
	}
}

// TestSessionExploreStoreStats: the session surfaces the sharded
// store's compaction stats; an unchanged-target resume migrates every
// entry and invalidates none.
func TestSessionExploreStoreStats(t *testing.T) {
	sys, ok := LookupSystem("minidb")
	if !ok {
		t.Fatal("minidb not registered")
	}
	sess := mustSession(t,
		WithWorkers(4),
		WithStore(filepath.Join(t.TempDir(), "store")),
	)
	first, err := sess.Explore(context.Background(), sys)
	if err != nil {
		t.Fatal(err)
	}
	if first.StoreStats == nil {
		t.Fatal("no store stats on a stored run")
	}
	if first.StoreStats.Shards == 0 || first.StoreStats.Entries == 0 || first.StoreStats.Images != 1 {
		t.Fatalf("implausible first-run stats: %s", first.StoreStats)
	}
	if first.StoreStats.Migrated != 0 {
		t.Fatalf("first run migrated %d entries out of thin air", first.StoreStats.Migrated)
	}

	second, err := sess.Explore(context.Background(), sys)
	if err != nil {
		t.Fatal(err)
	}
	if second.Executed != 0 || second.Replayed != first.Executed {
		t.Fatalf("resume executed %d / replayed %d, want 0 / %d", second.Executed, second.Replayed, first.Executed)
	}
	st := second.StoreStats
	if st == nil || st.Migrated != st.Entries || st.Invalidated != 0 {
		t.Fatalf("resume should migrate every entry and invalidate none: %s", st)
	}
}

// TestNewSessionValidation: nonsensical options fail fast from
// NewSession with a clear error instead of panicking or stalling
// mid-campaign.
func TestNewSessionValidation(t *testing.T) {
	cases := []struct {
		name string
		opts []SessionOption
		want string
	}{
		{"zero workers", []SessionOption{WithWorkers(0)}, "WithWorkers"},
		{"negative workers", []SessionOption{WithWorkers(-3)}, "WithWorkers"},
		{"negative budget", []SessionOption{WithBudget(-1)}, "WithBudget"},
		{"nil executor", []SessionOption{WithExecutors(nil)}, "nil executor"},
		{"no executors", []SessionOption{WithExecutors()}, "no executors"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sess, err := NewSession(tc.opts...)
			if err == nil {
				sess.Close()
				t.Fatalf("NewSession accepted %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name the bad option (%q)", err, tc.want)
			}
		})
	}

	// An unwritable store root: a regular file where the directory
	// should go.
	blocked := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(blocked, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if sess, err := NewSession(WithStore(filepath.Join(blocked, "store"))); err == nil {
		sess.Close()
		t.Fatal("NewSession accepted an unwritable store root")
	} else if !strings.Contains(err.Error(), "WithStore") {
		t.Fatalf("store error does not name the option: %q", err)
	}
}

// TestSessionConvergedResumeLeavesStoreUntouched: a resume that
// executes nothing writes no store file, and constructing its session
// checks the store root without a probe file, so the root and every
// path under it keep their mode, size and mtime.
func TestSessionConvergedResumeLeavesStoreUntouched(t *testing.T) {
	root := filepath.Join(t.TempDir(), "store")
	explore := func() int {
		t.Helper()
		res, err := mustSession(t, WithStore(root), WithSeed(1)).ExploreAll(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res.Executed
	}
	// A default-flag store converges within a few sessions.
	for i := 0; explore() != 0; i++ {
		if i == 3 {
			t.Fatal("store did not converge in four sessions")
		}
	}

	// Back-date everything, so any write shows as a fresh mtime
	// whatever the file system's timestamp granularity.
	old := time.Date(2001, 2, 3, 4, 5, 6, 0, time.UTC)
	type stat struct {
		mode  os.FileMode
		size  int64
		mtime time.Time
	}
	snapshot := func() map[string]stat {
		t.Helper()
		out := map[string]stat{}
		err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			fi, err := d.Info()
			if err != nil {
				return err
			}
			out[p] = stat{fi.Mode(), fi.Size(), fi.ModTime()}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	for p := range snapshot() {
		if err := os.Chtimes(p, old, old); err != nil {
			t.Fatal(err)
		}
	}
	before := snapshot()

	if n := explore(); n != 0 {
		t.Fatalf("converged resume executed %d tests", n)
	}
	after := snapshot()
	for p, b := range before {
		if a, ok := after[p]; !ok {
			t.Errorf("%s: removed by a converged resume", p)
		} else if a != b {
			t.Errorf("%s: %+v before a converged resume, %+v after", p, b, a)
		}
	}
	for p := range after {
		if _, ok := before[p]; !ok {
			t.Errorf("%s: created by a converged resume", p)
		}
	}
}

// startSessionLoopback runs an in-process `lfi serve` worker and dials
// it.
func startSessionLoopback(t *testing.T, workers int) Executor {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go ServeExecutor(ctx, ln, workers, nil)
	r, err := DialExecutor(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestSessionExecutorEquivalence is the public-API face of the
// executor equivalence property: Session.Run through the default local
// backend, a subprocess pool, and a loopback `lfi serve` worker must
// produce identical reports — outcome strings, failure counts and
// worker-computed bug signatures — for the same scenarios and seed.
func TestSessionExecutorEquivalence(t *testing.T) {
	sys, ok := LookupSystem("minidb")
	if !ok {
		t.Fatal("minidb not registered")
	}
	scens := []*Scenario{
		sessionScenario(t, `<scenario name="first-read-fails">
		  <trigger id="nth" class="CallCountTrigger"><args><n>1</n></args></trigger>
		  <function name="read" return="-1" errno="EIO"><reftrigger ref="nth" /></function>
		</scenario>`),
		sessionScenario(t, `<scenario name="malloc-exhaustion">
		  <trigger id="all" class="CallCountTrigger"><args><from>1</from><to>200</to></args></trigger>
		  <function name="malloc" return="0" errno="ENOMEM"><reftrigger ref="all" /></function>
		</scenario>`),
		sessionScenario(t, `<scenario name="benign">
		  <trigger id="never" class="CallCountTrigger"><args><n>100000</n></args></trigger>
		  <function name="read" return="-1" errno="EINTR"><reftrigger ref="never" /></function>
		</scenario>`),
	}
	pool, err := NewPoolExecutor(2)
	if err != nil {
		t.Fatal(err)
	}
	report := func(name string, execs ...Executor) string {
		t.Helper()
		opts := []SessionOption{WithSeed(11)}
		if execs != nil {
			opts = append(opts, WithExecutors(execs...))
		}
		sess := mustSession(t, opts...)
		rep, err := sess.Run(context.Background(), sys, scens)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var b bytes.Buffer
		for _, o := range rep.Outcomes {
			b.WriteString(o.String())
			b.WriteByte('\n')
		}
		bugs, _ := json.Marshal(rep.Bugs)
		b.Write(bugs)
		return b.String()
	}
	local := report("local")
	if got := report("pool", pool...); got != local {
		t.Fatalf("pool report diverges from local:\n%s\nvs\n%s", got, local)
	}
	if got := report("remote", startSessionLoopback(t, 2)); got != local {
		t.Fatalf("remote report diverges from local:\n%s\nvs\n%s", got, local)
	}
}

// TestSessionExploreRemoteMatchesLocal: exploring minidb entirely on a
// wire-protocol backend — a loopback remote worker, or a subprocess
// pool — finds exactly the bugs the local explorer finds, and a second
// session resumes from the shared store with zero re-execution — the
// store lives with the session, not the worker.
func TestSessionExploreRemoteMatchesLocal(t *testing.T) {
	sys, ok := LookupSystem("minidb")
	if !ok {
		t.Fatal("minidb not registered")
	}
	localSess := mustSession(t, WithWorkers(4))
	localRes, err := localSess.Explore(context.Background(), sys)
	if err != nil {
		t.Fatal(err)
	}
	sigs := func(res *ExploreResult) []string {
		var out []string
		for _, b := range res.Bugs {
			out = append(out, b.Signature)
		}
		return out
	}
	lw := sigs(localRes)

	for _, tc := range []struct {
		name    string
		backend func(t *testing.T) []Executor
	}{
		{"remote", func(t *testing.T) []Executor { return []Executor{startSessionLoopback(t, 4)} }},
		{"pool", func(t *testing.T) []Executor {
			pool, err := NewPoolExecutor(2)
			if err != nil {
				t.Fatal(err)
			}
			return pool
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := filepath.Join(t.TempDir(), "store")
			sess := mustSession(t,
				WithExecutors(tc.backend(t)...),
				WithStore(store),
			)
			res, err := sess.Explore(context.Background(), sys)
			if err != nil {
				t.Fatal(err)
			}
			if rw := sigs(res); strings.Join(lw, "\n") != strings.Join(rw, "\n") {
				t.Fatalf("%s exploration found different bugs:\nlocal: %v\n%s: %v", tc.name, lw, tc.name, rw)
			}
			if res.Executed == 0 {
				t.Fatalf("%s exploration executed nothing", tc.name)
			}

			resumed := mustSession(t, WithWorkers(4), WithStore(store))
			again, err := resumed.Explore(context.Background(), sys)
			if err != nil {
				t.Fatal(err)
			}
			if again.Executed != 0 || again.Replayed != res.Executed {
				t.Fatalf("resume after %s run executed %d / replayed %d, want 0 / %d",
					tc.name, again.Executed, again.Replayed, res.Executed)
			}
		})
	}

	// A fresh store of every registered system is byte-identical, file
	// for file and index.json included, whichever backend mix wrote it:
	// nothing a backend measures reaches the store.
	t.Run("stores", func(t *testing.T) {
		var want map[string]string
		for _, be := range budgetBackends {
			store := filepath.Join(t.TempDir(), "store")
			opts := append(be.opts(t), WithSeed(1), WithStore(store))
			if _, err := mustSession(t, opts...).ExploreAll(context.Background()); err != nil {
				t.Fatalf("%s: %v", be.name, err)
			}
			got := storeFiles(t, store)
			if want == nil {
				want = got
				continue
			}
			for name, data := range want {
				if got[name] != data {
					t.Errorf("%s: %s differs from %s's", be.name, name, budgetBackends[0].name)
				}
			}
			for name := range got {
				if _, ok := want[name]; !ok {
					t.Errorf("%s: extra file %s", be.name, name)
				}
			}
		}
		if len(want) == 0 {
			t.Fatal("the sessions wrote no store")
		}
	})
}

// storeFiles reads every file under root, keyed by relative path.
func storeFiles(t *testing.T, root string) map[string]string {
	t.Helper()
	files := map[string]string{}
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(p)
		rel, _ := filepath.Rel(root, p)
		files[rel] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}
