package raft

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"lfi/internal/pbft"
)

// referenceDecode is DecodeMsg as plain encoding/json.
func referenceDecode(b []byte) (Msg, bool) {
	var m Msg
	if err := json.Unmarshal(b, &m); err != nil {
		return Msg{}, false
	}
	return m, m.Type != ""
}

// checkCodec fails t unless Encode (and AppendTo after any prefix) is
// json.Marshal on m and DecodeMsg agrees with encoding/json on m's
// bytes and on raw.
func checkCodec(t *testing.T, m Msg, raw []byte) {
	t.Helper()
	want, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Encode(); !bytes.Equal(got, want) {
		t.Fatalf("Encode(%#v) = %s, json.Marshal = %s", m, got, want)
	}
	// A replica encodes into a reused scratch buffer, stale bytes past
	// its length: AppendTo keeps what the buffer holds and appends
	// exactly the same bytes.
	prefix := append([]byte("{}"), raw...)
	scratch := append(bytes.Repeat([]byte{0xff}, len(prefix)+len(want)+16)[:0], prefix...)
	if got := m.AppendTo(scratch); !bytes.Equal(got, append(prefix, want...)) {
		t.Fatalf("AppendTo(%q, %#v) = %s, want the prefix then %s", prefix, m, got, want)
	}
	for _, b := range [][]byte{want, raw} {
		got, ok := DecodeMsg(b)
		ref, refOK := referenceDecode(b)
		if got != ref || ok != refOK {
			t.Fatalf("DecodeMsg(%q) = %#v, %v; encoding/json gives %#v, %v", b, got, ok, ref, refOK)
		}
	}
}

// FuzzMsgCodec checks the fixed-shape codec against encoding/json: for
// any field values Encode writes json.Marshal's bytes, and for those
// bytes and for arbitrary ones DecodeMsg returns what json.Unmarshal
// plus the non-empty-type rule returns.
func FuzzMsgCodec(f *testing.F) {
	add := func(m Msg, raw []byte) {
		f.Add(m.Type, m.Term, m.From, m.Idx, m.Op, m.PrevOp, m.Commit, raw)
	}
	for _, b := range Protocol().Trace() {
		m, _ := DecodeMsg(b)
		add(m, b)
	}
	for _, b := range pbft.Protocol().Trace() {
		add(Msg{}, b)
	}
	add(Msg{Type: "A<&>", Op: `"q\`}, nil)
	add(Msg{Type: TypeAppend, Op: "é", PrevOp: "\xff"}, nil)
	add(Msg{Type: TypeAck, Term: math.MinInt, From: math.MaxInt, Commit: -7}, nil)
	for _, raw := range []string{
		`{"T":"ACK","f":1}`,
		`{"t":"ACK","t":"APPEND"}`,
		`{"f":1,"t":"ACK"}`,
		`{ "t":"ACK","f":1}`,
		`{"t":"ACK","f":1} `,
		`{"t":"ACK","tm":01}`,
		`{"t":"ACK","tm":-0}`,
		`{"t":"ACK","tm":9223372036854775808}`,
		`{"t":"ACK","tm":-9223372036854775808}`,
		`{"t":"ACK","tm":1e3}`,
		`{"t":"ACK","op":"aA"}`,
		`{"t":"ACK","op":"<&>"}`,
		`{"t":"ACK"}x`,
		`{"t":"ACK",}`,
		`{"t":""}`,
		`{"tm":3}`,
		`null`,
		`{}`,
		`{`,
		``,
	} {
		add(Msg{}, []byte(raw))
	}
	f.Fuzz(func(t *testing.T, typ string, term, from, idx int, op, po string, commit int, raw []byte) {
		checkCodec(t, Msg{Type: typ, Term: term, From: from, Idx: idx, Op: op, PrevOp: po, Commit: commit}, raw)
	})
}
