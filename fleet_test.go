package lfi

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	osexec "os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"lfi/internal/explore"
	"lfi/internal/fleetd"
)

// spawnWorkerProcess re-executes this test binary as a real `lfi serve
// -j 2 -register registry` worker subprocess, listening on listen (see
// serveEnv), and returns its dialable address and a kill function.
func spawnWorkerProcess(t *testing.T, listen, registry string) (addr string, kill func()) {
	t.Helper()
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := osexec.Command(self)
	cmd.Env = append(os.Environ(), serveEnv+"="+listen+" "+registry)
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	line, err := bufio.NewReader(out).ReadString('\n')
	if err != nil {
		cmd.Process.Kill()
		t.Fatalf("worker said %q: %v", line, err)
	}
	addr = strings.TrimSpace(strings.TrimPrefix(line, "listening "))
	killed := false
	kill = func() {
		if !killed {
			killed = true
			cmd.Process.Kill()
			cmd.Wait()
		}
	}
	t.Cleanup(kill)
	return addr, kill
}

// startRegistry runs an in-process fleetd registry with a fast
// heartbeat so the test observes eviction in milliseconds.
func startRegistry(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go NewFleetRegistry(100*time.Millisecond, 3).Serve(ctx, ln, nil)
	return ln.Addr().String()
}

func exploreSigs(res *ExploreResult) []string {
	out := []string{}
	for _, b := range res.Bugs {
		out = append(out, b.Signature)
	}
	return out
}

// TestFleetServiceSelfRegistration is the fleet service mode
// end-to-end: two real worker subprocesses self-register with a
// registry, a session discovers them through WithFleet alone (no
// address list), one worker is killed mid-campaign — its in-flight
// batches requeue on the survivor and the registry evicts it on missed
// heartbeats — and the campaign still finds exactly the bugs and
// coverage an all-local run finds, folding every run exactly once.
func TestFleetServiceSelfRegistration(t *testing.T) {
	sys, ok := LookupSystem("minidb")
	if !ok {
		t.Fatal("minidb not registered")
	}
	baselineSess := mustSession(t, WithWorkers(4))
	baseline, err := baselineSess.Explore(context.Background(), sys)
	if err != nil {
		t.Fatal(err)
	}

	regAddr := startRegistry(t)
	_, killA := spawnWorkerProcess(t, "127.0.0.1:0", regAddr)
	spawnWorkerProcess(t, "127.0.0.1:0", regAddr)

	waitWorkers := func(n int, what string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if ws, err := fleetd.Workers(regAddr); err == nil && len(ws) == n {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Fatalf("timed out waiting for %s", what)
	}
	waitWorkers(2, "both workers to self-register")

	// Kill worker A as soon as the registry has seen it execute work —
	// mid-campaign if the campaign is still running, which the requeue
	// path then has to absorb.
	killDone := make(chan struct{})
	go func() {
		defer close(killDone)
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			ws, err := fleetd.Workers(regAddr)
			if err == nil {
				for _, w := range ws {
					if w.Stats.Batches > 0 {
						killA()
						return
					}
				}
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()

	sess := mustSession(t, WithFleet(regAddr))
	if n := len(sess.Executors()); n != 2 {
		t.Fatalf("session discovered %d backends from the registry, want 2", n)
	}
	res, err := sess.Explore(context.Background(), sys)
	if err != nil {
		t.Fatalf("fleet campaign: %v", err)
	}
	<-killDone

	if !reflect.DeepEqual(exploreSigs(baseline), exploreSigs(res)) {
		t.Fatalf("fleet campaign found different bugs:\nlocal: %v\nfleet: %v", exploreSigs(baseline), exploreSigs(res))
	}
	if res.Final.BlocksCovered != baseline.Final.BlocksCovered {
		t.Fatalf("fleet coverage %d, local %d", res.Final.BlocksCovered, baseline.Final.BlocksCovered)
	}
	// Zero duplicate folds, zero lost runs: the deterministic candidate
	// space executes exactly once each, worker death notwithstanding.
	if res.Executed != baseline.Executed {
		t.Fatalf("fleet executed %d runs, local %d: work lost or folded twice across the requeue", res.Executed, baseline.Executed)
	}

	// The registry evicts the killed worker on missed heartbeats.
	waitWorkers(1, "the killed worker to be evicted")

	// The session published campaign progress for `lfi fleet status`.
	st, err := FleetStatus(regAddr)
	if err != nil {
		t.Fatal(err)
	}
	if st.Campaign == nil {
		t.Fatal("no campaign snapshot published to the registry")
	}
	// The last snapshot is the final one: the session flushes it when
	// the campaign ends, whatever the rate limit dropped.
	got, ok := st.Campaign.Systems[res.System]
	want := fleetd.SystemStatus{Executed: res.Executed, Replayed: res.Replayed, Bugs: len(res.Bugs), Covered: res.Final.BlocksCovered}
	if !ok || got.Executed != want.Executed || got.Replayed != want.Replayed || got.Bugs != want.Bugs || got.Covered != want.Covered {
		t.Fatalf("published campaign status for %s: %+v, want the final result %+v", res.System, got, want)
	}
}

// otherBuild is a local backend posing as an `lfi serve` worker built
// from another commit: it advertises the image of an inert minidb patch
// for minidb, nothing for raft (as a worker that does not register it
// does), and this build's image for every other system. It counts the
// batches it runs per system.
type otherBuild struct {
	Executor
	images map[string]string

	mu  sync.Mutex
	ran map[string]int
}

func newOtherBuild(t *testing.T) *otherBuild {
	t.Helper()
	e := &otherBuild{Executor: NewLocalExecutor(2), images: map[string]string{}, ran: map[string]int{}}
	for _, sys := range Systems() {
		if sys.Name == "minidb" {
			var err error
			if sys, err = PatchSystem(sys, "errmsg_load"); err != nil {
				t.Fatal(err)
			}
		}
		if sys.Name != "raft" {
			b, _ := sys.Binary()
			e.images[sys.Name] = explore.ImageVersion(b)
		}
	}
	return e
}

func (e *otherBuild) Info() ExecutorInfo {
	info := e.Executor.Info()
	info.Name = "other-build"
	return info
}

func (e *otherBuild) ImageVersion(sys string) string { return e.images[sys] }

func (e *otherBuild) Run(ctx context.Context, b *ExecBatch) ([]*ExecOutcome, error) {
	e.mu.Lock()
	e.ran[b.System]++
	e.mu.Unlock()
	return e.Executor.Run(ctx, b)
}

// TestSessionRoutesByImage: a batch runs only on a backend that runs
// its system as this build's image. Beside a local backend, a worker
// of another build gets the batches of every system it runs as ours
// and none of minidb (another image) or raft (no image), and the
// session's result and fresh store are byte-identical to an all-local
// run's. With that worker alone, exploring minidb or raft fails with
// an error naming it and both images.
func TestSessionRoutesByImage(t *testing.T) {
	explored := func(opts ...SessionOption) (string, map[string]string) {
		t.Helper()
		store := filepath.Join(t.TempDir(), "store")
		res, err := mustSession(t, append(opts, WithSeed(1), WithStore(store))...).ExploreAll(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		res.Elapsed = 0
		for _, r := range res.Results {
			r.Elapsed = 0
		}
		js, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return string(js), storeFiles(t, store)
	}
	wantRes, wantStore := explored(WithWorkers(2))

	other := newOtherBuild(t)
	gotRes, gotStore := explored(WithExecutors(NewLocalExecutor(2), other))
	for _, sys := range Systems() {
		n := other.ran[sys.Name]
		if skip := sys.Name == "minidb" || sys.Name == "raft"; skip != (n == 0) {
			t.Errorf("the other build ran %d %s batches", n, sys.Name)
		}
	}
	if gotRes != wantRes {
		t.Errorf("result differs from the all-local run's:\n%s\nvs\n%s", gotRes, wantRes)
	}
	if !reflect.DeepEqual(gotStore, wantStore) {
		t.Error("store differs from the all-local run's")
	}

	for _, name := range []string{"minidb", "raft"} {
		sys, _ := LookupSystem(name)
		b, _ := sys.Binary()
		_, err := mustSession(t, WithExecutor(other)).Explore(context.Background(), sys)
		for _, want := range []string{"other-build", explore.ImageVersion(b), fmt.Sprintf("%q", other.images[name])} {
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s on the other build alone: error %v, want one naming %s", name, err, want)
			}
		}
	}
}

// TestSessionRunRoutesByImage: Session.Run routes its batch by image,
// like Explore. The other build runs minidns as ours, so it runs a
// minidns test; it advertises no image of raft, so alone it gets a raft
// Run refused with the fleet's error naming it, and runs nothing.
func TestSessionRunRoutesByImage(t *testing.T) {
	scens := []*Scenario{sessionScenario(t, `<scenario name="benign">
	  <trigger id="never" class="CallCountTrigger"><args><n>100000</n></args></trigger>
	  <function name="read" return="-1" errno="EINTR"><reftrigger ref="never" /></function>
	</scenario>`)}
	other := newOtherBuild(t)
	sess := mustSession(t, WithExecutor(other))
	dns, _ := LookupSystem("minidns")
	if rep, err := sess.Run(context.Background(), dns, scens); err != nil || len(rep.Outcomes) != 1 {
		t.Fatalf("minidns on the other build: %v", err)
	}
	raft, _ := LookupSystem("raft")
	rep, err := sess.Run(context.Background(), raft, scens)
	if err == nil || !strings.Contains(err.Error(), "no live backend runs raft image") || !strings.Contains(err.Error(), "other-build") {
		t.Errorf("raft on the other build alone: error %v, want the fleet's no-live-backend error naming it", err)
	}
	if len(rep.Outcomes) != 0 || other.ran["raft"] != 0 || other.ran["minidns"] != 1 {
		t.Errorf("the other build ran %d minidns and %d raft batches, %d raft outcomes reported; want 1, 0, 0",
			other.ran["minidns"], other.ran["raft"], len(rep.Outcomes))
	}
}

// TestFleetWorkerRestartsAtSameAddress: a registered worker that is
// killed — its BackendError gets it marked dead — and restarts at the
// same address before the registry evicts it re-registers under a new
// ID. The session's fleet watcher must dial it again, so later runs
// dispatch to it instead of finding no live backend for the rest of
// the session.
func TestFleetWorkerRestartsAtSameAddress(t *testing.T) {
	sys, ok := LookupSystem("minidb")
	if !ok {
		t.Fatal("minidb not registered")
	}
	scens := []*Scenario{
		sessionScenario(t, `<scenario name="first-read-fails">
		  <trigger id="nth" class="CallCountTrigger"><args><n>1</n></args></trigger>
		  <function name="read" return="-1" errno="EIO"><reftrigger ref="nth" /></function>
		</scenario>`),
		sessionScenario(t, `<scenario name="benign">
		  <trigger id="never" class="CallCountTrigger"><args><n>100000</n></args></trigger>
		  <function name="read" return="-1" errno="EINTR"><reftrigger ref="never" /></function>
		</scenario>`),
	}
	// Default registry timing: the restart lands well inside the
	// 3 × 2 s eviction window, so the registry never drops the address.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go NewFleetRegistry(DefaultFleetHeartbeat, DefaultFleetMiss).Serve(ctx, ln, nil)
	regAddr := ln.Addr().String()
	registered := func(addr string) string {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
			ws, err := fleetd.Workers(regAddr)
			if err == nil && len(ws) == 1 && ws[0].Addr == addr {
				return ws[0].ID
			}
		}
		t.Fatalf("worker %s never registered", addr)
		return ""
	}

	addr, kill := spawnWorkerProcess(t, "127.0.0.1:0", regAddr)
	firstID := registered(addr)
	sess := mustSession(t, WithFleet(regAddr))
	if _, err := sess.Run(context.Background(), sys, scens); err != nil {
		t.Fatal(err)
	}
	kill()
	if _, err := sess.Run(context.Background(), sys, scens); err == nil {
		t.Fatal("run succeeded with the fleet's only worker killed")
	}

	spawnWorkerProcess(t, addr, regAddr)
	for registered(addr) == firstID {
		time.Sleep(10 * time.Millisecond)
	}
	// The watcher polls the registry every heartbeat interval.
	for deadline := time.Now().Add(5 * DefaultFleetHeartbeat); ; time.Sleep(50 * time.Millisecond) {
		rep, err := sess.Run(context.Background(), sys, scens)
		if err == nil && len(rep.Outcomes) == len(scens) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("restarted worker at %s never dispatched to: %v", addr, err)
		}
	}
}
