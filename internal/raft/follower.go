package raft

import (
	"fmt"

	"lfi/internal/coverage"
	"lfi/internal/libsim"
)

// electionPolls is the length of the trace's election segment: the
// follower's main loop polls from the election site this many times
// before entering the replication loop. The scripted trace (six terms
// of vote-request/heartbeat churn plus a settling heartbeat) matches it
// exactly; raft_test.go pins the alignment.
const electionPolls = 13

// sendRetries bounds the release build's silent resend of a failed
// sendto (the robust reply layer).
const sendRetries = 8

// Follower is the RAFT replica-under-test: a follower of a three-node
// cluster whose leader and rival candidate are scripted by the harness.
type Follower struct {
	ID int

	C  *libsim.C
	Th *libsim.Thread
	fd int64

	term     int
	votedFor int
	leader   int
	// log is the replicated entry slice (1-based index i at log[i-1]);
	// "" marks a truncated hole — an entry whose APPEND was lost and
	// whose piggybacked repair chance was lost with the next one.
	log    []string
	commit int
	polls  int
	// out is the scratch each outgoing message is encoded in; Reset
	// keeps it, and sendto copies the datagram out of it.
	out []byte
}

// NewFollower creates follower id, bound to the shared network.
func NewFollower(id int, net libsim.NetBackend) *Follower {
	c := libsim.New(1 << 22)
	c.Node = fmt.Sprintf("N%d", id)
	c.SetNet(net)
	c.MustMkdirAll("/raft")
	c.SnapshotFS()
	return &Follower{
		ID:       id,
		C:        c,
		Th:       c.NewThread(ModuleFollower, "main"),
		votedFor: -1,
		leader:   -1,
	}
}

// Reset returns the follower to the state NewFollower left it in: the
// image rewound to its staged filesystem (Reset keeps the coverage
// recorder, cleared), the main thread's stack unwound, and the protocol
// state zeroed. A recycled follower runs the trace exactly as a fresh
// one would.
func (f *Follower) Reset() {
	f.C.Reset()
	f.Th.Reset()
	f.fd = 0
	f.term, f.votedFor, f.leader = 0, -1, -1
	f.log = f.log[:0]
	f.commit, f.polls = 0, 0
}

// Blocks is the follower's coverage universe; blocks follow the
// rec.<siteLabel> convention of the application targets.
var Blocks = coverage.NewIndex([]coverage.Block{
	{ID: "main.vote", LOC: 18},
	{ID: "main.heartbeat", LOC: 12},
	{ID: "main.append", LOC: 20},
	{ID: "main.repair", LOC: 16},
	{ID: "main.commit", LOC: 10},
	{ID: "main.snapshot", LOC: 12},
	{ID: "main.shutdown", LOC: 8},
	// Recovery arms: the two receive-failure paths (election loop,
	// replication loop), the reply retry loop, and the tolerated
	// periodic-snapshot open failure.
	{ID: "rec.el_recvfrom", LOC: 5, Recovery: true},
	{ID: "rec.ap_recvfrom", LOC: 5, Recovery: true},
	{ID: "rec.rp_sendto", LOC: 6, Recovery: true},
	{ID: "rec.sn_fopen_ok", LOC: 3, Recovery: true},
})

// Image returns the follower's simulated process.
func (f *Follower) Image() *libsim.C { return f.C }

// Committed returns the follower's commit index.
func (f *Follower) Committed() int { return f.commit }

// Log returns a copy of the replicated log ("" = truncated hole).
func (f *Follower) Log() []string { return append([]string(nil), f.log...) }

func (f *Follower) at(fn, label string) func() {
	_, offsets := Binary()
	return f.Th.Enter(ModuleFollower, fn, offsets[label])
}

// Open creates and binds the follower socket; the harness drives
// receives itself.
func (f *Follower) Open() error {
	t := f.Th
	f.fd = t.Socket()
	if f.fd < 0 {
		return fmt.Errorf("raft: follower %d: socket: %v", f.ID, t.Errno())
	}
	if t.Bind(f.fd, NodeAddr(f.ID)) < 0 {
		return fmt.Errorf("raft: follower %d: bind: %v", f.ID, t.Errno())
	}
	return nil
}

// PollOnce performs exactly one non-blocking receive and handles the
// message if one arrived, reporting whether a datagram was consumed.
// The follower's main loop runs the election phase for the scripted
// number of polls before entering the replication loop, so the two
// receive interceptions come from distinct call sites — the reason
// site-local (call-stack window) bursts can reach the replication
// stream when global occurrence counts cannot.
func (f *Follower) PollOnce(buf []byte) bool {
	f.polls++
	var pop func()
	election := f.polls <= electionPolls
	if election {
		pop = f.at("election", "el_recvfrom")
	} else {
		pop = f.at("applog", "ap_recvfrom")
	}
	var from string
	n := f.Th.Recvfrom(f.fd, buf, &from)
	pop()
	if n <= 0 {
		if election {
			f.C.Cov.Hit("rec.el_recvfrom")
		} else {
			f.C.Cov.Hit("rec.ap_recvfrom")
		}
		return false
	}
	if m, ok := DecodeMsg(buf[:n]); ok {
		f.handle(m)
	}
	return true
}

// send transmits one reply, silently retrying a bounded number of
// times on failure (release build: a reply that cannot be delivered is
// given up, never reported).
func (f *Follower) send(dst string, m Msg) {
	f.out = m.AppendTo(f.out[:0])
	payload := f.out
	for i := 0; i < 1+sendRetries; i++ {
		pop := f.at("reply", "rp_sendto")
		n := f.Th.Sendto(f.fd, payload, dst)
		pop()
		if n >= 0 {
			return
		}
		if i == 0 {
			f.C.Cov.Hit("rec.rp_sendto") // retry path entered
		}
	}
}

// handle dispatches one received message.
func (f *Follower) handle(m Msg) {
	switch m.Type {
	case TypeVoteReq:
		f.onVoteReq(m)
	case TypeAppend:
		f.onAppend(m)
	}
}

// onVoteReq grants a vote for any term newer than the follower's own —
// one vote per term, the core of election safety.
func (f *Follower) onVoteReq(m Msg) {
	f.C.Cov.Hit("main.vote")
	if m.Term < f.term {
		return
	}
	if m.Term > f.term {
		f.term, f.votedFor = m.Term, -1
	}
	if f.votedFor != -1 && f.votedFor != m.From {
		return // one vote per term
	}
	f.votedFor = m.From
	f.send(NodeAddr(m.From), Msg{Type: TypeVoteResp, Term: f.term, From: f.ID})
}

// onAppend handles a heartbeat (Idx 0) or a log replication. A hole of
// exactly one entry is repaired from the message's piggybacked
// predecessor; a deeper hole is truncated — filled with contentless
// slots the trace never retransmits. The commit index advances from
// the leader's word alone; the seeded bug is that nothing re-checks
// that every entry below it has content (see Snapshot).
func (f *Follower) onAppend(m Msg) {
	if m.Term >= f.term {
		f.term, f.leader = m.Term, m.From
	}
	if m.Idx == 0 {
		f.C.Cov.Hit("main.heartbeat")
	} else {
		f.C.Cov.Hit("main.append")
		if m.Idx <= len(f.log) {
			if f.log[m.Idx-1] == "" {
				f.log[m.Idx-1] = m.Op // late retransmission repairs in place
			}
		} else {
			for len(f.log) < m.Idx-2 {
				f.log = append(f.log, "") // truncated: predecessor content is gone
			}
			if len(f.log) == m.Idx-2 {
				// One-entry hole: repair from the piggybacked predecessor.
				f.C.Cov.Hit("main.repair")
				f.log = append(f.log, m.PrevOp)
			}
			f.log = append(f.log, m.Op)
		}
	}
	if m.Commit > f.commit {
		// BUG (Table 1 class): the leader's commit index is adopted
		// without verifying the local log actually holds content for
		// every entry below it.
		f.C.Cov.Hit("main.commit")
		f.commit = m.Commit
	}
	f.send(NodeAddr(m.From), Msg{Type: TypeAck, Term: f.term, From: f.ID, Idx: len(f.log)})
}

// Snapshot persists the committed prefix (the checked-fopen periodic
// path). Walking the prefix dereferences every committed entry — a
// truncated hole below the commit index is the seeded crash.
func (f *Follower) Snapshot() {
	t := f.Th
	f.C.Cov.Hit("main.snapshot")
	for i := 1; i <= f.commit; i++ {
		if i > len(f.log) || f.log[i-1] == "" {
			t.RaiseCrash(libsim.Segfault,
				"log truncation: snapshot of committed entry %d with no content", i)
		}
	}
	pop := f.at("snapshot", "sn_fopen_ok")
	fp := t.Fopen(fmt.Sprintf("/raft/snap-%d", f.commit), "w")
	pop()
	if fp == 0 {
		f.C.Cov.Hit("rec.sn_fopen_ok")
		return // periodic snapshot failure is tolerated
	}
	pop = f.at("snapshot", "sn_fwrite_ok")
	t.Fwrite([]byte(fmt.Sprintf("snap %d term=%d", f.commit, f.term)), fp)
	pop()
	t.Fclose(fp)
}

// ShutdownSnapshot is the follower's exit path: it writes a final
// snapshot WITHOUT checking that the file opened — the unchecked-fopen
// bug (fwrite through a NULL FILE*).
func (f *Follower) ShutdownSnapshot() {
	t := f.Th
	f.C.Cov.Hit("main.shutdown")
	pop := f.at("shutdown", "sd_fopen")
	fp := t.Fopen("/raft/snapshot-final", "w")
	pop()
	// BUG: fp not checked.
	pop = f.at("shutdown", "sd_fwrite")
	t.Fwrite([]byte(fmt.Sprintf("final snap commit=%d", f.commit)), fp)
	pop()
	t.Fclose(fp)
}

// Finish runs the post-trace epilogue: the periodic snapshot (where a
// truncated committed entry crashes) and the shutdown snapshot (where
// the unchecked fopen crashes).
func (f *Follower) Finish() {
	f.Snapshot()
	f.ShutdownSnapshot()
}
