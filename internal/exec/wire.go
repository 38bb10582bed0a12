package exec

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
)

// The wire protocol shared by the pool (stdio) and remote (TCP)
// backends. Every message is one frame — a 4-byte big-endian payload
// length followed by that many payload bytes — so framing survives any
// stream transport and a reader can reject oversized or torn messages
// before parsing.
//
// Two payload encodings share the framing and are distinguished by the
// first payload byte:
//
//   - JSON (first byte '{') for the control methods: the hello
//     exchange and the "funcs" fingerprint query.
//
//	client → worker: {"id":1,"method":"hello"}
//	worker → client: {"id":1,"hello":{"proto":3,"capacity":4,"systems":[...],"images":{...}}}
//	client → worker: {"id":2,"method":"funcs","system":"minidb"}
//	worker → client: {"id":2,"funcs":{...}}
//
//   - binary (first byte 0xB2) for everything on the hot path: run
//     requests, run responses and cancels (see wire2.go for the
//     layout).
//
// The service semantics:
//
//   - the hello response carries the worker's protocol version, and a
//     client accepts only its own: any other version fails the dial
//     with ProtoMismatchError, before a batch is ever sent;
//   - a **cancel** frame names an in-flight run request by id; the
//     worker stops starting new runs, finishes the ones in flight, and
//     answers the cancelled request with its completed prefix;
//   - requests are **pipelined**: a worker reads the next run request
//     while executing the current one (batches still execute in FIFO
//     order per connection, preserving determinism), and responses
//     carry ids so a client can keep several batches in flight;
//   - the hello response advertises per-system **image versions** and
//     the "funcs" method serves per-function fingerprints, so a client
//     can detect a mixed-build worker and reconcile its outcomes
//     through the store's migration machinery instead of dropping them.
//
// A batch's scenarios travel as canonical XML (scenario.Serialize is
// byte-deterministic), so content hashes — and therefore store keys —
// mean the same thing on both ends. Errors come back in-band on the
// response's error field; transport failures surface as BackendError.

// protoVersion is the one protocol version this build speaks; a peer
// advertising any other is rejected at connection setup, not
// mid-campaign.
const protoVersion = 3

// maxFrame bounds one message (a batch of a few hundred scenarios is
// well under 1 MiB; 64 MiB rejects garbage and runaway peers).
const maxFrame = 64 << 20

type request struct {
	ID     uint64 `json:"id"`
	Method string `json:"method"`
	// System parametrizes the "funcs" method.
	System string `json:"system,omitempty"`
}

type response struct {
	ID       uint64     `json:"id"`
	Error    string     `json:"error,omitempty"`
	Hello    *helloInfo `json:"hello,omitempty"`
	Outcomes []*Outcome `json:"-"` // binary run responses only
	// Funcs answers a "funcs" request: the worker's per-function
	// fingerprints for one system.
	Funcs map[string]string `json:"funcs,omitempty"`
}

type helloInfo struct {
	Proto    int      `json:"proto"`
	Capacity int      `json:"capacity"`
	Systems  []string `json:"systems"`
	// Images maps each advertised system to the image version the
	// worker would execute it as — the mixed-build handshake: a client
	// whose own image differs reconciles this worker's outcomes instead
	// of trusting them blindly.
	Images map[string]string `json:"images,omitempty"`
}

// writeRawFrame writes one length-prefixed frame.
func writeRawFrame(w io.Writer, data []byte) error {
	if len(data) > maxFrame {
		return fmt.Errorf("exec: frame too large: %d bytes", len(data))
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(data)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(data)
	return err
}

// readRawFrame reads one length-prefixed frame's payload.
func readRawFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("exec: frame too large: %d bytes", n)
	}
	data := make([]byte, n)
	if _, err := io.ReadFull(r, data); err != nil {
		return nil, err
	}
	return data, nil
}

// writeFrame marshals v as JSON and writes one frame.
func writeFrame(w io.Writer, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("exec: marshal: %w", err)
	}
	return writeRawFrame(w, data)
}
