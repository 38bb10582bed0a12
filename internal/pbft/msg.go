// Package pbft implements Practical Byzantine Fault Tolerance (Castro &
// Liskov) over the simulated network, as the distributed target system
// of the paper's evaluation (§7.1, §7.3, Figure 3).
//
// The implementation covers the normal-case three-phase protocol
// (pre-prepare, prepare, commit with 2f and 2f+1 quorums), client
// interaction with f+1 matching replies and retransmission, periodic
// checkpointing, and view changes. All network I/O goes through the
// simulated sendto/recvfrom calls, so LFI scenarios can degrade the
// network, silence replicas, or stage rotation attacks.
//
// Two Table 1 bugs are seeded, mirroring the paper:
//
//   - the shutdown path writes a checkpoint through a FILE* obtained
//     from an unchecked fopen — fwrite(NULL) crashes;
//   - the release build ignores sendto failures (the debug build halts
//     on them), so under message loss a replica can learn that a
//     sequence number committed without ever holding the request
//     content; the view-change code then dereferences the missing
//     committed message and crashes.
package pbft

import (
	"encoding/json"
	"fmt"
	"strconv"

	"lfi/internal/distharness"
)

// Message types.
const (
	TypeRequest    = "REQUEST"
	TypePrePrepare = "PRE-PREPARE"
	TypePrepare    = "PREPARE"
	TypeCommit     = "COMMIT"
	TypeReply      = "REPLY"
	TypeViewChange = "VIEW-CHANGE"
	TypeNewView    = "NEW-VIEW"
)

// Msg is the wire format of every PBFT message.
type Msg struct {
	Type    string `json:"t"`
	View    int    `json:"v,omitempty"`
	Seq     int    `json:"n,omitempty"`
	Replica int    `json:"r"`
	Client  string `json:"c,omitempty"`
	ReqID   int64  `json:"id,omitempty"`
	Op      string `json:"op,omitempty"`
	Digest  string `json:"d,omitempty"`
	Result  string `json:"res,omitempty"`
}

// msgTypes lets DecodeMsg return the message type constants instead of
// allocating a copy per datagram.
var msgTypes = []string{TypeRequest, TypePrePrepare, TypePrepare, TypeCommit, TypeReply, TypeViewChange, TypeNewView}

// Encode serializes the message into a fresh buffer.
func (m Msg) Encode() []byte {
	return m.AppendTo(make([]byte, 0, 80+len(m.Type)+len(m.Client)+len(m.Op)+len(m.Digest)+len(m.Result)))
}

// AppendTo appends the message's encoding to b: the bytes of
// json.Marshal, appended directly (json.Marshal itself only for strings
// it would escape).
func (m Msg) AppendTo(b []byte) []byte {
	e := distharness.AppendFlat(b)
	e.Str("t", m.Type, false)
	e.Int("v", int64(m.View), true)
	e.Int("n", int64(m.Seq), true)
	e.Int("r", int64(m.Replica), false)
	e.Str("c", m.Client, true)
	e.Int("id", m.ReqID, true)
	e.Str("op", m.Op, true)
	e.Str("d", m.Digest, true)
	e.Str("res", m.Result, true)
	if out, ok := e.Bytes(); ok {
		return out
	}
	j, err := json.Marshal(m)
	if err != nil {
		panic(fmt.Sprintf("pbft: marshal: %v", err))
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
	if d.Key("v") {
		m.View = d.Int()
	}
	if d.Key("n") {
		m.Seq = d.Int()
	}
	if d.Key("r") {
		m.Replica = d.Int()
	}
	if d.Key("c") {
		m.Client = d.Str()
	}
	if d.Key("id") {
		m.ReqID = d.Int64()
	}
	if d.Key("op") {
		m.Op = d.Str()
	}
	if d.Key("d") {
		m.Digest = d.Str()
	}
	if d.Key("res") {
		m.Result = d.Str()
	}
	if !d.Done() {
		m = Msg{}
		if err := json.Unmarshal(b, &m); err != nil {
			return Msg{}, false
		}
	}
	return m, m.Type != ""
}

// digest computes the request digest used in protocol messages.
func digest(client string, reqID int64, op string) string {
	var h uint64 = 14695981039346656037
	for _, b := range []byte(fmt.Sprintf("%s|%d|%s", client, reqID, op)) {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return fmt.Sprintf("%016x", h)
}

// ReplicaAddr returns the network address of replica i.
func ReplicaAddr(i int) string {
	if i >= 0 && i < len(replicaAddrs) {
		return replicaAddrs[i]
	}
	return "replica-" + strconv.Itoa(i)
}

// replicaAddrs spells an f=1 group's addresses once: a replica
// broadcasts to every peer, and formatting each address per send was a
// measurable share of a run.
var replicaAddrs = [...]string{"replica-0", "replica-1", "replica-2", "replica-3"}
