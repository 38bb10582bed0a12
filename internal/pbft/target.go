package pbft

import (
	"fmt"

	"lfi/internal/controller"
	"lfi/internal/coverage"
	"lfi/internal/distharness"
	"lfi/internal/libsim"
	"lfi/internal/netsim"
)

// This file adapts PBFT to the fault-space explorer through the
// protocol-agnostic distharness trace loop: pbft supplies only the
// protocol knowledge (which replica to stage, the recorded message
// trace, the liveness oracle) and distharness supplies the scripted
// recvfrom-interception ↔ trace-datagram loop with zero-depth-buffer
// loss semantics.
//
// The harness drives replica 3 of an f=1 configuration (a backup in
// view 0, not the primary of view 1) through one complete operation —
// REQUEST, PRE-PREPARE, the prepare and commit quorums, then a NEW-VIEW
// announcing view 1 — followed by a periodic checkpoint and the
// shutdown checkpoint.
//
// Both release-build Table 1 bugs are reachable with no hand-written
// scenario:
//
//   - the shutdown checkpoint's unchecked fopen (a single injected
//     fault crashes the following fwrite on a NULL stream);
//   - the view-change crash, which needs a *window* of receive faults:
//     losing only the REQUEST leaves the pre-prepare to supply the
//     content, and losing only the PRE-PREPARE is repaired from the
//     client request cache — but losing both (occurrence window 1-2)
//     lets the commit quorum record a contentless entry that the
//     NEW-VIEW then dereferences. That is exactly the burst shape the
//     explorer's window mutations discover.
const harnessReplicaID = 3

// protocol is PBFT's distharness plug: a stateless value; all per-run
// state lives in the Replica.
type protocol struct{}

// Protocol returns PBFT's scripted-trace protocol description.
func Protocol() distharness.Protocol { return protocol{} }

func (protocol) Name() string { return "pbft" }

func (protocol) Addr() string { return ReplicaAddr(harnessReplicaID) }

// Sinks lists the peer replicas and the client, so every outbound send
// has a live destination.
func (protocol) Sinks() []string {
	sinks := make([]string, 0, 4)
	for i := 0; i < harnessReplicaID; i++ { // replicas 0..2 of n=4
		sinks = append(sinks, ReplicaAddr(i))
	}
	return append(sinks, "client-0")
}

// NewReplica stages a release-build replica with coverage recording on.
func (protocol) NewReplica(net *netsim.Network) distharness.Replica {
	r := NewReplica(harnessReplicaID, 1, net, BuildRelease)
	r.C.Cov = coverage.NewRecorder(Blocks)
	return r
}

// Trace is the recorded message sequence: one operation reaching
// execution on a backup, then the move to view 1.
func (protocol) Trace() [][]byte {
	const client, op = "client-0", "op-1"
	d := digest(client, 1, op)
	msgs := []Msg{
		{Type: TypeRequest, Replica: -1, Client: client, ReqID: 1, Op: op},
		{Type: TypePrePrepare, View: 0, Seq: 1, Replica: 0, Client: client, ReqID: 1, Op: op, Digest: d},
		{Type: TypePrepare, View: 0, Seq: 1, Replica: 1, Digest: d},
		{Type: TypePrepare, View: 0, Seq: 1, Replica: 2, Digest: d},
		{Type: TypeCommit, View: 0, Seq: 1, Replica: 0, Digest: d},
		{Type: TypeCommit, View: 0, Seq: 1, Replica: 1, Digest: d},
		{Type: TypeCommit, View: 0, Seq: 1, Replica: 2, Digest: d},
		{Type: TypeNewView, View: 1, Replica: 1},
	}
	trace := make([][]byte, len(msgs))
	for i, m := range msgs {
		trace[i] = m.Encode()
	}
	return trace
}

// Check is the liveness oracle: a run that survives but fails to
// execute the operation is a workload-detected failure.
func (protocol) Check(r distharness.Replica) error {
	if got := r.(*Replica).Executed(); got != 1 {
		return fmt.Errorf("pbft harness: executed %d of 1 operations", got)
	}
	return nil
}

// Image and Finish adapt *Replica to distharness.Replica
// (Open, PollOnce and Reset it already has).

// Image returns the replica's simulated process.
func (r *Replica) Image() *libsim.C { return r.C }

// Finish writes the periodic checkpoint and then the shutdown
// checkpoint (the unchecked-fopen Table 1 bug), directly so crashes
// propagate to the controller's monitor.
func (r *Replica) Finish() {
	r.Checkpoint()
	r.ShutdownCheckpoint()
}

// Target adapts the scripted harness to the LFI controller.
func Target() controller.Target { return distharness.Target(Protocol()) }
