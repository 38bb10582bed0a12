package raft

import (
	"fmt"

	"lfi/internal/controller"
	"lfi/internal/coverage"
	"lfi/internal/distharness"
	"lfi/internal/netsim"
)

// followerID is the replica-under-test: follower 1 of a three-node
// cluster whose leader (node 0) and rival candidate (node 2) are
// scripted by the trace.
const followerID = 1

// protocol is RAFT's distharness plug — the whole adaptation of a new
// distributed target to the generic trace loop.
type protocol struct{}

// Protocol returns RAFT's scripted-trace protocol description.
func Protocol() distharness.Protocol { return protocol{} }

func (protocol) Name() string { return "raft" }

func (protocol) Addr() string { return NodeAddr(followerID) }

// Sinks lists the two peers, so vote replies and acks have live
// destinations.
func (protocol) Sinks() []string {
	return []string{NodeAddr(0), NodeAddr(2)}
}

// NewReplica stages a follower with coverage recording on.
func (protocol) NewReplica(net *netsim.Network) distharness.Replica {
	f := NewFollower(followerID, net)
	f.C.Cov = coverage.NewRecorder(Blocks)
	return f
}

// Trace is the recorded message sequence: a noisy six-term startup —
// node 2 soliciting votes, node 0 answering with heartbeats — then a
// settling heartbeat, then four replicated entries and the heartbeat
// that commits the last one. The election segment is exactly
// electionPolls messages long, so the replication APPENDs all arrive
// at the applog call site — past the global occurrence range, inside
// the site-local one.
func (protocol) Trace() [][]byte {
	var msgs []Msg
	for term := 1; term <= 6; term++ {
		msgs = append(msgs,
			Msg{Type: TypeVoteReq, Term: term, From: 2},
			Msg{Type: TypeAppend, Term: term, From: 0}, // heartbeat
		)
	}
	msgs = append(msgs, Msg{Type: TypeAppend, Term: 6, From: 0}) // the cluster settles
	if len(msgs) != electionPolls {
		panic(fmt.Sprintf("raft: election trace %d messages, want %d", len(msgs), electionPolls))
	}
	// Replication: each APPEND piggybacks its predecessor's content
	// (PrevOp), so a follower that lost exactly one message repairs the
	// hole from the next; two consecutive losses truncate the log. The
	// final message retransmits entry 4 and commits it, so a single
	// loss anywhere in the segment still converges.
	op := func(i int) string { return fmt.Sprintf("op-%d", i) }
	msgs = append(msgs,
		Msg{Type: TypeAppend, Term: 6, From: 0, Idx: 1, Op: op(1), Commit: 0},
		Msg{Type: TypeAppend, Term: 6, From: 0, Idx: 2, Op: op(2), PrevOp: op(1), Commit: 1},
		Msg{Type: TypeAppend, Term: 6, From: 0, Idx: 3, Op: op(3), PrevOp: op(2), Commit: 2},
		Msg{Type: TypeAppend, Term: 6, From: 0, Idx: 4, Op: op(4), PrevOp: op(3), Commit: 3},
		Msg{Type: TypeAppend, Term: 6, From: 0, Idx: 4, Op: op(4), PrevOp: op(3), Commit: 4},
	)
	trace := make([][]byte, len(msgs))
	for i, m := range msgs {
		trace[i] = m.Encode()
	}
	return trace
}

// Check is the liveness oracle: a surviving run must have committed
// all four entries.
func (protocol) Check(r distharness.Replica) error {
	if got := r.(*Follower).Committed(); got != 4 {
		return fmt.Errorf("raft harness: committed %d of 4 entries", got)
	}
	return nil
}

// Target adapts the scripted harness to the LFI controller.
func Target() controller.Target { return distharness.Target(Protocol()) }
