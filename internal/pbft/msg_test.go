package pbft

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"lfi/internal/raft"
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
		f.Add(m.Type, m.View, m.Seq, m.Replica, m.Client, m.ReqID, m.Op, m.Digest, m.Result, raw)
	}
	for _, b := range Protocol().Trace() {
		m, _ := DecodeMsg(b)
		add(m, b)
	}
	for _, b := range raft.Protocol().Trace() {
		add(Msg{}, b)
	}
	add(Msg{Type: "A<&>", Client: `"q\`}, nil)
	add(Msg{Type: TypeReply, Op: "é", Result: "\xff"}, nil)
	add(Msg{Type: TypeCommit, View: math.MinInt, Seq: math.MaxInt, ReqID: -7, Replica: -1}, nil)
	for _, raw := range []string{
		`{"T":"COMMIT","r":1}`,
		`{"t":"COMMIT","t":"REPLY","r":1}`,
		`{"r":1,"t":"COMMIT"}`,
		`{ "t":"COMMIT","r":1}`,
		`{"t":"COMMIT","r":1} `,
		`{"t":"COMMIT","n":01,"r":1}`,
		`{"t":"COMMIT","r":-0}`,
		`{"t":"COMMIT","r":1,"id":9223372036854775808}`,
		`{"t":"COMMIT","r":1,"id":-9223372036854775808}`,
		`{"t":"COMMIT","r":1.5}`,
		`{"t":"COMMIT","r":1,"c":"aA"}`,
		`{"t":"COMMIT","r":1,"d":"<&>"}`,
		`{"t":"COMMIT","r":1}x`,
		`{"t":"COMMIT","r":1,}`,
		`{"t":"","r":1}`,
		`{"r":3}`,
		`null`,
		`{}`,
		`{`,
		``,
	} {
		add(Msg{}, []byte(raw))
	}
	f.Fuzz(func(t *testing.T, typ string, view, seq, replica int, client string, reqID int64, op, dig, res string, raw []byte) {
		checkCodec(t, Msg{Type: typ, View: view, Seq: seq, Replica: replica, Client: client, ReqID: reqID, Op: op, Digest: dig, Result: res}, raw)
	})
}
