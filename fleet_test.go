package lfi

import (
	"bufio"
	"context"
	"net"
	"os"
	osexec "os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"lfi/internal/exec"
	"lfi/internal/fleetd"
)

// spawnWorkerProcess re-executes this test binary as a real `lfi serve`
// worker subprocess (the MaybeExecWorker env hook) and returns its
// dialable address and a kill function. Extra env entries layer fleet
// registration (EnvRegister) or a mixed build (EnvPatch) on top.
func spawnWorkerProcess(t *testing.T, extraEnv ...string) (addr string, kill func()) {
	t.Helper()
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := osexec.Command(self)
	cmd.Env = append(os.Environ(), exec.EnvServe+"=127.0.0.1:0", exec.EnvWorkerJobs+"=2")
	cmd.Env = append(cmd.Env, extraEnv...)
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
	_, killA := spawnWorkerProcess(t, exec.EnvRegister+"="+regAddr)
	spawnWorkerProcess(t, exec.EnvRegister+"="+regAddr)

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

// TestSessionMixedBuildReconciliation: a worker running a different
// build (inert one-function patch, so behavior is identical but the
// image version and one fingerprint differ) joins the fleet. Its
// outcomes are reconciled by impact analysis — adopted when the edit
// provably cannot reach their coverage, re-executed on a build-matched
// backend otherwise — never silently dropped, and the store ends up
// fully keyed under the coordinator's image: a resume replays
// everything with zero re-execution.
func TestSessionMixedBuildReconciliation(t *testing.T) {
	sys, ok := LookupSystem("minidb")
	if !ok {
		t.Fatal("minidb not registered")
	}
	baselineSess := mustSession(t, WithWorkers(4))
	baseline, err := baselineSess.Explore(context.Background(), sys)
	if err != nil {
		t.Fatal(err)
	}

	addr, _ := spawnWorkerProcess(t, exec.EnvPatch+"=minidb:errmsg_load")
	remote, err := DialExecutor(addr)
	if err != nil {
		t.Fatal(err)
	}
	store := filepath.Join(t.TempDir(), "store")
	sess := mustSession(t,
		WithExecutors(NewLocalExecutor(2), remote),
		WithStore(store),
	)
	res, err := sess.Explore(context.Background(), sys)
	if err != nil {
		t.Fatal(err)
	}

	if res.Mixed == nil {
		t.Fatal("no mixed-build summary: the patched worker executed nothing?")
	}
	if len(res.Mixed.Images) != 1 || !strings.HasPrefix(res.Mixed.Images[0], "minidb@") {
		t.Fatalf("foreign images seen = %v, want the patched worker's minidb image", res.Mixed.Images)
	}
	if res.Mixed.Migrated+res.Mixed.Revalidated == 0 {
		t.Fatal("mixed-build outcomes neither adopted nor re-validated")
	}
	// Identical results despite the mixed fleet: the patch is inert.
	if !reflect.DeepEqual(exploreSigs(baseline), exploreSigs(res)) {
		t.Fatalf("mixed fleet found different bugs:\nlocal: %v\nmixed: %v", exploreSigs(baseline), exploreSigs(res))
	}
	if res.Final.BlocksCovered != baseline.Final.BlocksCovered {
		t.Fatalf("mixed fleet coverage %d, local %d", res.Final.BlocksCovered, baseline.Final.BlocksCovered)
	}

	// Every outcome — adopted foreign ones included — landed in the
	// store under this build's keys exactly once: a local resume replays
	// the whole space without executing a single run.
	resumed := mustSession(t, WithWorkers(4), WithStore(store))
	res2, err := resumed.Explore(context.Background(), sys)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Executed != 0 {
		t.Fatalf("resume after mixed-build campaign re-executed %d runs, want 0", res2.Executed)
	}
	if !reflect.DeepEqual(exploreSigs(res), exploreSigs(res2)) {
		t.Fatalf("resume lost bugs: %v vs %v", exploreSigs(res), exploreSigs(res2))
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

	addr, kill := spawnWorkerProcess(t, exec.EnvRegister+"="+regAddr)
	firstID := registered(addr)
	sess := mustSession(t, WithFleet(regAddr))
	if _, err := sess.Run(context.Background(), sys, scens); err != nil {
		t.Fatal(err)
	}
	kill()
	if _, err := sess.Run(context.Background(), sys, scens); err == nil {
		t.Fatal("run succeeded with the fleet's only worker killed")
	}

	spawnWorkerProcess(t, exec.EnvServe+"="+addr, exec.EnvRegister+"="+regAddr)
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
