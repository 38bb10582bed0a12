// Package raft implements a RAFT follower (Ongaro & Ousterhout) over
// the simulated network, as the second distributed target system — the
// one-package registration that demonstrates the distharness layer's
// extensibility claim: no trace-loop machinery of its own, just the
// protocol knowledge (trace, replica, oracle).
//
// The scripted harness drives a follower through a noisy six-term
// startup (vote requests and heartbeats — leader election recovery)
// and then a four-entry log replication with piggybacked repair. Two
// Table-1-class bugs are seeded, mirroring the PBFT pair:
//
//   - the shutdown snapshot writes through a FILE* obtained from an
//     unchecked fopen — fwrite(NULL) crashes;
//   - the follower advances its commit index from the leader's word
//     alone, without re-checking that every committed entry has
//     content. A single lost APPEND is repaired from the next
//     message's piggybacked predecessor entry, but losing two
//     *consecutive* APPENDs leaves a truncated hole below the commit
//     index, and the snapshot of the committed prefix then
//     dereferences it. Because the replication phase sits past the
//     election churn in the receive stream, the burst is out of the
//     global occurrence counter's range — only the explorer's bred
//     call-stack windows (site-local bursts) reach it.
package raft

import (
	"encoding/json"
	"fmt"
	"strconv"

	"lfi/internal/distharness"
)

// Message types.
const (
	// TypeVoteReq solicits a vote for a candidate's term.
	TypeVoteReq = "VOTE-REQ"
	// TypeVoteResp grants a vote.
	TypeVoteResp = "VOTE-RESP"
	// TypeAppend replicates a log entry; with Idx 0 it is a heartbeat.
	TypeAppend = "APPEND"
	// TypeAck acknowledges an append or heartbeat.
	TypeAck = "ACK"
)

// Msg is the wire format of every RAFT message. PrevOp piggybacks the
// predecessor entry's content, so a follower that lost exactly one
// APPEND can repair the hole from the next one.
type Msg struct {
	Type   string `json:"t"`
	Term   int    `json:"tm,omitempty"`
	From   int    `json:"f"`
	Idx    int    `json:"i,omitempty"`
	Op     string `json:"op,omitempty"`
	PrevOp string `json:"po,omitempty"`
	Commit int    `json:"c,omitempty"`
}

// msgTypes lets DecodeMsg return the message type constants instead of
// allocating a copy per datagram.
var msgTypes = []string{TypeVoteReq, TypeVoteResp, TypeAppend, TypeAck}

// Encode serializes the message into a fresh buffer.
func (m Msg) Encode() []byte {
	return m.AppendTo(make([]byte, 0, 64+len(m.Type)+len(m.Op)+len(m.PrevOp)))
}

// AppendTo appends the message's encoding to b: the bytes of
// json.Marshal, appended directly (json.Marshal itself only for strings
// it would escape).
func (m Msg) AppendTo(b []byte) []byte {
	e := distharness.AppendFlat(b)
	e.Str("t", m.Type, false)
	e.Int("tm", int64(m.Term), true)
	e.Int("f", int64(m.From), false)
	e.Int("i", int64(m.Idx), true)
	e.Str("op", m.Op, true)
	e.Str("po", m.PrevOp, true)
	e.Int("c", int64(m.Commit), true)
	if out, ok := e.Bytes(); ok {
		return out
	}
	j, err := json.Marshal(m)
	if err != nil {
		panic(fmt.Sprintf("raft: marshal: %v", err))
	}
	return append(b, j...)
}

// DecodeMsg parses one datagram; ok is false for garbage. The shape
// Encode writes is read directly; anything else goes to
// json.Unmarshal.
func DecodeMsg(b []byte) (Msg, bool) {
	var m Msg
	d := distharness.NewFlatDecoder(b)
	if d.Key("t") {
		m.Type = d.Str(msgTypes...)
	}
	if d.Key("tm") {
		m.Term = d.Int()
	}
	if d.Key("f") {
		m.From = d.Int()
	}
	if d.Key("i") {
		m.Idx = d.Int()
	}
	if d.Key("op") {
		m.Op = d.Str()
	}
	if d.Key("po") {
		m.PrevOp = d.Str()
	}
	if d.Key("c") {
		m.Commit = d.Int()
	}
	if !d.Done() {
		m = Msg{}
		if err := json.Unmarshal(b, &m); err != nil {
			return Msg{}, false
		}
	}
	return m, m.Type != ""
}

// NodeAddr returns the network address of node i.
func NodeAddr(i int) string {
	if i >= 0 && i < len(nodeAddrs) {
		return nodeAddrs[i]
	}
	return "raft-" + strconv.Itoa(i)
}

// nodeAddrs spells the cluster's addresses once: the follower sends a
// reply per received message, and formatting the address per send was
// a measurable share of a run.
var nodeAddrs = [...]string{"raft-0", "raft-1", "raft-2"}
