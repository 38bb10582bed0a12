package pbft

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"lfi/internal/core"
	"lfi/internal/libsim"
	"lfi/internal/scenario"
)

func startCluster(t *testing.T, build Build) *Cluster {
	t.Helper()
	cl := NewCluster(1, build)
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	return cl
}

func TestNormalCaseCommits(t *testing.T) {
	cl := startCluster(t, BuildDebug)
	defer cl.Stop()
	done, _ := cl.RunWorkload(10, 2*time.Second)
	if done != 10 {
		t.Fatalf("completed %d/10", done)
	}
	// Give the cluster a beat to finish executing everywhere.
	cl.Idle(50 * time.Millisecond)
	if err := cl.AgreeOnPrefix(); err != nil {
		t.Fatal(err)
	}
	// At least 2f+1 replicas must have executed all ops.
	executed := 0
	for _, r := range cl.Replicas {
		if r.Executed() >= 10 {
			executed++
		}
	}
	if executed < 3 {
		t.Fatalf("only %d replicas executed everything", executed)
	}
}

func TestDuplicateRequestReturnsCachedReply(t *testing.T) {
	cl := startCluster(t, BuildDebug)
	defer cl.Stop()
	if _, ok := cl.Invoke("op-a", 2*time.Second); !ok {
		t.Fatal("first invoke failed")
	}
	// Re-sending the same reqID must not re-execute: issue a second
	// op, then compare executed counts (1 extra only).
	if _, ok := cl.Invoke("op-b", 2*time.Second); !ok {
		t.Fatal("second invoke failed")
	}
	cl.Idle(50 * time.Millisecond)
	for _, r := range cl.Replicas {
		if r.Executed() > 2 {
			t.Fatalf("replica %d executed %d ops (duplicates re-executed)", r.ID, r.Executed())
		}
	}
}

func TestProgressWithOneSilencedReplica(t *testing.T) {
	// f=1: the cluster must commit with one replica silenced.
	cl := NewCluster(1, BuildDebug)
	silence, err := scenario.ParseString(`<scenario name="silence-R3">
	  <trigger id="always" class="CallCountTrigger"><args><from>1</from></args></trigger>
	  <function name="sendto" return="-1" errno="EHOSTUNREACH"><reftrigger ref="always" /></function>
	  <function name="recvfrom" return="-1" errno="EINTR"><reftrigger ref="always" /></function>
	</scenario>`)
	if err != nil {
		t.Fatal(err)
	}
	// Install only on replica 3.
	rt, err := core.New(cl.Replicas[3].C, silence)
	if err != nil {
		t.Fatal(err)
	}
	rt.Install()
	defer rt.Uninstall()
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	done, _ := cl.RunWorkload(5, 2*time.Second)
	if done != 5 {
		t.Fatalf("completed %d/5 with one silenced replica", done)
	}
	if cl.Replicas[3].Executed() != 0 {
		t.Fatal("silenced replica executed operations")
	}
}

func TestSafetyUnderRandomLoss(t *testing.T) {
	// DESIGN.md property: under any injected loss pattern, correct
	// replicas never diverge on the committed prefix. Uses the
	// release build — the debug build deliberately halts on the first
	// failed send (that is the paper's point about the two builds).
	cl := NewCluster(1, BuildRelease)
	loss, err := scenario.ParseString(`<scenario name="loss-20">
	  <trigger id="p" class="RandomTrigger"><args><probability>0.2</probability></args></trigger>
	  <function name="sendto" return="-1" errno="EAGAIN"><reftrigger ref="p" /></function>
	</scenario>`)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.InstallScenario(loss); err != nil {
		t.Fatal(err)
	}
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	done, _ := cl.RunWorkload(8, 3*time.Second)
	// Liveness is best-effort under loss (a replica may even trip the
	// seeded view-change bug); the property under test is safety.
	if done < 4 {
		t.Fatalf("completed only %d/8 under 20%% loss (crashes: %v)", done, cl.Crashes())
	}
	cl.Idle(50 * time.Millisecond)
	if err := cl.AgreeOnPrefix(); err != nil {
		t.Fatal(err)
	}
}

func TestShutdownCheckpointBug(t *testing.T) {
	// The Table 1 PBFT bug: a failed fopen at shutdown crashes the
	// replica in fwrite. Inject fopen=0 only at the shutdown call
	// site, as the analyzer-generated scenario does.
	_, offsets := Binary()
	doc := fmt.Sprintf(`<scenario name="pbft-shutdown-fopen">
	  <trigger id="cs" class="CallStackTrigger">
	    <args><frame><module>%s</module><offset>%x</offset></frame></args>
	  </trigger>
	  <function name="fopen" retval="0" errno="EINVAL"><reftrigger ref="cs" /></function>
	</scenario>`, ModuleServer, offsets["sd_fopen"])
	s, err := scenario.ParseString(doc)
	if err != nil {
		t.Fatal(err)
	}
	cl := NewCluster(1, BuildDebug)
	if err := cl.InstallScenario(s); err != nil {
		t.Fatal(err)
	}
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	cl.RunWorkload(2, 2*time.Second)
	cl.Stop()
	crash := cl.FirstCrash()
	if crash == nil {
		t.Fatal("no crash at shutdown")
	}
	if crash.Kind != libsim.Segfault || !strings.Contains(crash.Reason, "fwrite(NULL FILE*)") {
		t.Fatalf("unexpected crash: %v", crash)
	}
}

func TestPeriodicCheckpointFopenFailureTolerated(t *testing.T) {
	// The periodic checkpoint path checks its fopen: injecting there
	// must not crash anything.
	_, offsets := Binary()
	doc := fmt.Sprintf(`<scenario name="pbft-ckpt-fopen">
	  <trigger id="cs" class="CallStackTrigger">
	    <args><frame><module>%s</module><offset>%x</offset></frame></args>
	  </trigger>
	  <function name="fopen" retval="0" errno="EMFILE"><reftrigger ref="cs" /></function>
	</scenario>`, ModuleServer, offsets["cp_fopen_ok"])
	s, err := scenario.ParseString(doc)
	if err != nil {
		t.Fatal(err)
	}
	cl := NewCluster(1, BuildDebug)
	if err := cl.InstallScenario(s); err != nil {
		t.Fatal(err)
	}
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	done, _ := cl.RunWorkload(10, 2*time.Second) // crosses checkpointEvery
	cl.Stop()
	if done != 10 {
		t.Fatalf("completed %d/10", done)
	}
	if crash := cl.FirstCrash(); crash != nil {
		t.Fatalf("checked checkpoint path crashed: %v", crash)
	}
}

func TestViewChangeOnSilentPrimary(t *testing.T) {
	// Silence the primary (R0): the cluster must elect a new view and
	// keep serving.
	cl := NewCluster(1, BuildDebug)
	silence, err := scenario.ParseString(`<scenario name="silence-R0">
	  <trigger id="always" class="CallCountTrigger"><args><from>1</from></args></trigger>
	  <function name="sendto" return="-1" errno="EHOSTUNREACH"><reftrigger ref="always" /></function>
	  <function name="recvfrom" return="-1" errno="EINTR"><reftrigger ref="always" /></function>
	</scenario>`)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := core.New(cl.Replicas[0].C, silence)
	if err != nil {
		t.Fatal(err)
	}
	rt.Install()
	defer rt.Uninstall()
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	done, _ := cl.RunWorkload(3, 4*time.Second)
	if done != 3 {
		t.Fatalf("completed %d/3 after primary silencing", done)
	}
	views := 0
	for _, r := range cl.Replicas[1:] {
		if r.View() > 0 {
			views++
		}
	}
	if views < 2 {
		t.Fatalf("view change did not happen (views>0 on %d replicas)", views)
	}
}

func TestMsgEncodeDecode(t *testing.T) {
	m := Msg{Type: TypePrePrepare, View: 2, Seq: 7, Replica: 1, Client: "c", ReqID: 9, Op: "x", Digest: "d"}
	got, ok := DecodeMsg(m.Encode())
	if !ok || got != m {
		t.Fatalf("round trip: %+v", got)
	}
	if _, ok := DecodeMsg([]byte("junk")); ok {
		t.Fatal("garbage decoded")
	}
	if _, ok := DecodeMsg([]byte("{}")); ok {
		t.Fatal("empty type accepted")
	}
}

func TestDigestDeterministic(t *testing.T) {
	a := digest("c1", 1, "op")
	b := digest("c1", 1, "op")
	c := digest("c1", 2, "op")
	if a != b || a == c {
		t.Fatal("digest broken")
	}
}
