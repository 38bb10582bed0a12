package exec

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"lfi/internal/binrec"
	"lfi/internal/coverage"
	"lfi/internal/scenario"
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
//	worker → client: {"id":1,"hello":{"proto":5,"capacity":4,"systems":[...],"images":{...},"universes":{...}}}
//	client → worker: {"id":2,"method":"funcs","system":"minidb"}
//	worker → client: {"id":2,"funcs":{...}}
//
//   - binary (first byte 0xB2) for everything on the hot path: run
//     requests, run responses and cancels (layout below).
//
// The service semantics:
//
//   - the hello response carries the worker's protocol version, and a
//     client accepts only its own: any other version fails the dial
//     with ProtoMismatchError, before a batch is ever sent;
//   - a **cancel** frame names an in-flight run request by id; the
//     worker stops starting new runs of it, finishes the ones in
//     flight, and answers the cancelled request with its completed
//     prefix;
//   - requests are **pipelined**: a worker reads the next run request
//     while executing the current ones, and runs a connection's queued
//     batches side by side, as many at once as it has workers, all on
//     one in-process pool of that width. Responses carry ids and may
//     leave in any order; a run's outcome depends only on its scenario
//     and seed, so the order batches run in never changes a result;
//   - the hello response advertises per-system **image versions** and
//     **block-universe fingerprints** (universeHash), and a client's
//     fleet sends a worker only the batches of its own build
//     (Batch.Image): an outcome always comes from the build that asked
//     for it. A worker whose universe of a system differs from the
//     client's runs another build of it, whatever its image, so the
//     client checks the universes once, at the hello, and every
//     coverage bit on the connection names a block of the client's own
//     Descriptor.Blocks. The "funcs" method serves a system's
//     per-function fingerprints.
//
// A batch's scenarios travel as binary records (scenario.AppendBinary),
// each decoded afresh per request: the worker keeps no scenario cache.
// Content hashes, and so store keys, are computed by the client alone.
// Errors come back in-band on the response's error field; transport
// failures surface as BackendError.

// protoVersion is the one protocol version this build speaks; a peer
// advertising any other is rejected at connection setup, not
// mid-campaign.
const protoVersion = 5

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
	// worker would execute it as: a client's fleet routes a batch here
	// only when its Batch.Image matches.
	Images map[string]string `json:"images,omitempty"`
	// Universes maps each advertised system to the universeHash of its
	// block universe: a client takes a system whose universe is not its
	// own for another build, and routes none of its batches here.
	Universes map[string]string `json:"universes,omitempty"`
}

// universeHash fingerprints a block universe, its sorted block IDs, in
// 12 hex digits like impact.ImageHash. The worker advertises it per
// system and the client compares it with its own Blocks', both through
// this one function.
func universeHash(x *coverage.Index) string {
	var b []byte
	for _, id := range x.IDs() {
		b = binrec.AppendString(b, id)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:6])
}

// frameHeader is the size of a frame's length prefix. A sender builds
// a frame in one buffer with the prefix reserved at its front, so the
// whole frame leaves in one Write: one syscall, and under TCP_NODELAY
// one segment rather than a 4-byte one ahead of the payload.
const frameHeader = 4

// newFrame empties buf down to a reserved frame header, ready for a
// payload to be appended.
func newFrame(buf []byte) []byte { return append(buf[:0], 0, 0, 0, 0) }

// sendFrame fills in the length prefix reserved at frame's front and
// writes the frame with one Write.
func sendFrame(w io.Writer, frame []byte) error {
	n := len(frame) - frameHeader
	if n > maxFrame {
		return fmt.Errorf("exec: frame too large: %d bytes", n)
	}
	binary.BigEndian.PutUint32(frame, uint32(n))
	_, err := w.Write(frame)
	return err
}

// writeRawFrame writes payload as one frame, copied behind its header.
func writeRawFrame(w io.Writer, payload []byte) error {
	return sendFrame(w, append(make([]byte, frameHeader, frameHeader+len(payload)), payload...))
}

// frameChunk is the payload frameReader allocates before any of it
// has arrived: a frame up to this size takes one allocation of its
// size, and a larger one grows as its bytes come in, so a peer that
// declares a large frame and stops costs what it sent, not what it
// declared.
const frameChunk = 64 << 10

// frameReader reads one connection end's length-prefixed frames. Each
// end reads through its one *bufio.Reader, so a frame's header and a
// small payload cost one read syscall between them, or none when an
// earlier read brought them in. The header lands in hdr, which the
// connection owns, so a frame read allocates only its payload.
type frameReader struct {
	r   io.Reader
	hdr [frameHeader]byte
}

// read reads one frame's payload. An oversized length is refused
// before anything is allocated for the payload.
func (f *frameReader) read() ([]byte, error) {
	if _, err := io.ReadFull(f.r, f.hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(f.hdr[:]))
	if n > maxFrame {
		return nil, fmt.Errorf("exec: frame too large: %d bytes", n)
	}
	data := make([]byte, min(n, frameChunk))
	for off := 0; ; {
		m, err := io.ReadFull(f.r, data[off:])
		if off += m; err == io.EOF && off > 0 {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return nil, err
		}
		if off == n {
			return data, nil
		}
		data = slices.Grow(data, min(n-off, off))[:min(n, 2*off)]
	}
}

// writeFrame marshals v as JSON and writes one frame.
func writeFrame(w io.Writer, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("exec: marshal: %w", err)
	}
	return writeRawFrame(w, data)
}

// Binary payloads for the hot path: run requests, run responses and
// cancels. The frame layer (4-byte length prefix) is shared with the
// JSON control methods; a binary payload is recognized by its first
// byte. Its integers, strings, flags and counts are binrec's
// primitives, and every decoder reads them through one binrec.Reader,
// under its rules (minimal varints, counts bounded by the bytes left):
//
//	payload := 0xB2 kind body
//	kind    := 0x01 (run request) | 0x02 (run response) | 0x03 (cancel)
//
// Run request body:
//
//	uvarint id
//	string  system
//	varint  seed                    (zigzag)
//	flag    coverage
//	uvarint nscenarios
//	nscenarios × scenario
//
// Scenario:
//
//	uvarint ref                     (0 = a record follows; i+1 = the
//	                                 scenario of entry i < this one)
//	if ref == 0: string record      (scenario.AppendBinary)
//
// A scenario that appears more than once in a batch is sent once and
// referenced after that, so it decodes to one *Scenario that the
// worker compiles once per batch.
//
// Run response body:
//
//	uvarint id
//	string  error                   ("" = ok)
//	uvarint nstrings, nstrings × string  (response string table)
//	uvarint noutcomes
//	noutcomes × outcome
//
// Outcome:
//
//	byte    flags                   (bit0 crashed, bit1 has coverage bitset; no other bit)
//	ref     name                    (uvarint string-table index+1; 0 = "")
//	if crashed: uvarint kind, ref reason, uvarint thread
//	ref     workErr
//	ref     signature
//	uvarint injections
//	if coverage: uvarint nwords, nwords × 8-byte little-endian words
//
// Coverage is a bitset over the batch system's Descriptor.Blocks, the
// universe both sides checked equal at the hello: a few dozen bytes of
// bitset words instead of a sorted []string of block IDs. The client
// refuses a bitset longer than that universe or with a bit at or past
// its end. The string table deduplicates repeated crash reasons and
// failure signatures within a response.

const (
	frameMagic     = 0xB2
	frameRunReq    = 0x01
	frameRunResp   = 0x02
	frameCancel    = 0x03
	outCrashed     = 1 << 0
	outHasCoverage = 1 << 1
)

// --- encoding ----------------------------------------------------------------

// appendRunRequest appends a run request's payload to out.
func appendRunRequest(out []byte, id uint64, b *Batch) []byte {
	out = append(out, frameMagic, frameRunReq)
	out = binary.AppendUvarint(out, id)
	out = binrec.AppendString(out, b.System)
	out = binary.AppendVarint(out, b.Seed)
	out = binrec.AppendFlag(out, b.Coverage)
	out = binary.AppendUvarint(out, uint64(len(b.Scenarios)))
	for i, s := range b.Scenarios {
		if j := slices.Index(b.Scenarios[:i], s); j >= 0 {
			out = binary.AppendUvarint(out, uint64(j)+1)
			continue
		}
		out = append(out, 0)
		out = appendRecord(out, s)
	}
	return out
}

// appendRecord appends s's binary record behind its length. The record
// is written in place first and then moved up by the length's width,
// so it needs no scratch buffer.
func appendRecord(b []byte, s *scenario.Scenario) []byte {
	start := len(b)
	b = s.AppendBinary(b)
	var hdr [binary.MaxVarintLen64]byte
	h := binary.PutUvarint(hdr[:], uint64(len(b)-start))
	b = append(b, hdr[:h]...)
	copy(b[start+h:], b[start:len(b)-h])
	copy(b[start:], hdr[:h])
	return b
}

// appendCancel appends a cancel payload naming an in-flight run
// request to out. Cancel has no response of its own: the cancelled run
// request answers with its completed prefix.
func appendCancel(out []byte, id uint64) []byte {
	out = append(out, frameMagic, frameCancel)
	return binary.AppendUvarint(out, id)
}

// frameID reads the request/response id every binary frame kind leads
// with, without decoding the rest — the server's read loop needs the
// id before the (potentially deferred) full decode.
func frameID(payload []byte) (uint64, error) {
	r := binrec.NewReader(payload)
	r.Take(2)
	id := r.Uvarint()
	return id, wireErr(r.Err())
}

// respEncoder encodes run responses. The server keeps one per executor
// goroutine and reuses its string table and body buffer across batches,
// so a steady-state response allocates nothing.
type respEncoder struct {
	strs map[string]uint64 // string -> table index
	tab  []string
	body []byte // the outcomes, encoded before the table they refer to
}

func (e *respEncoder) ref(s string) uint64 {
	if s == "" {
		return 0
	}
	if i, ok := e.strs[s]; ok {
		return i + 1
	}
	if e.strs == nil {
		e.strs = make(map[string]uint64)
	}
	i := uint64(len(e.tab))
	e.strs[s] = i
	e.tab = append(e.tab, s)
	return i + 1
}

// appendRunResponse appends a run response's payload to out.
func (e *respEncoder) appendRunResponse(out []byte, id uint64, errStr string, outs []*Outcome) []byte {
	clear(e.strs)
	e.tab = e.tab[:0]
	// Pre-encode outcomes so the string table is complete before it is
	// written; the body is appended after the header.
	body := binary.AppendUvarint(e.body[:0], uint64(len(outs)))
	for _, o := range outs {
		var flags byte
		if o.Crashed {
			flags |= outCrashed
		}
		if o.CovU != nil {
			flags |= outHasCoverage
		}
		body = append(body, flags)
		body = binary.AppendUvarint(body, e.ref(o.Name))
		if o.Crashed {
			body = binary.AppendUvarint(body, uint64(o.CrashKind))
			body = binary.AppendUvarint(body, e.ref(o.CrashReason))
			body = binary.AppendUvarint(body, uint64(o.CrashThread))
		}
		body = binary.AppendUvarint(body, e.ref(o.WorkErr))
		body = binary.AppendUvarint(body, e.ref(o.Signature))
		body = binary.AppendUvarint(body, uint64(o.Injections))
		if o.CovU != nil {
			body = binary.AppendUvarint(body, uint64(len(o.Cov)))
			for _, w := range o.Cov {
				body = binary.LittleEndian.AppendUint64(body, w)
			}
		}
	}
	e.body = body
	out = append(out, frameMagic, frameRunResp)
	out = binary.AppendUvarint(out, id)
	out = binrec.AppendString(out, errStr)
	out = binary.AppendUvarint(out, uint64(len(e.tab)))
	for _, s := range e.tab {
		out = binrec.AppendString(out, s)
	}
	return append(out, body...)
}

// --- decoding ----------------------------------------------------------------

// wireErr names a binary frame in a decoding error, or returns nil.
func wireErr(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("exec: binary frame %w", err)
}

// isBinaryFrame reports whether a payload is a binary frame of the
// given kind.
func isBinaryFrame(payload []byte, kind byte) bool {
	return len(payload) >= 2 && payload[0] == frameMagic && payload[1] == kind
}

// decodeRunRequest parses a binary run request. Its strings, the
// scenarios' included, alias one string copy of the payload; a
// back-reference decodes to the *Scenario of the entry it names.
func decodeRunRequest(payload []byte) (id uint64, b *Batch, err error) {
	r := binrec.NewReader(string(payload))
	r.Take(2)
	id = r.Uvarint()
	b = &Batch{System: r.String(), Seed: r.Varint(), Coverage: r.Flag()}
	b.Scenarios = make([]*scenario.Scenario, r.Count())
	for i := range b.Scenarios {
		if ref := r.Uvarint(); ref != 0 {
			if ref > uint64(i) {
				return id, nil, fmt.Errorf("exec: binary frame: scenario %d refers to entry %d, not an earlier one", i, ref-1)
			}
			b.Scenarios[i] = b.Scenarios[ref-1]
			continue
		}
		rec := r.String()
		if r.Err() != nil {
			break
		}
		s, err := scenario.DecodeBinary(rec)
		if err != nil {
			return id, nil, fmt.Errorf("exec: batch scenario %d: %w", i, err)
		}
		b.Scenarios[i] = s
	}
	if err := r.Finish(); err != nil {
		return id, nil, wireErr(err)
	}
	return id, b, nil
}

// decodeRunResponse parses a binary run response; its strings are
// copies, so an outcome the store keeps pins no frame. Decoded
// coverage is over blocks, the batch system's universe the client
// checked at the hello; a response with coverage outside it, or with
// coverage and no checked universe, is refused whole.
func decodeRunResponse(payload []byte, resp *response, blocks *coverage.Index) error {
	r := binrec.NewReader(payload)
	r.Take(2)
	resp.ID = r.Uvarint()
	resp.Error = r.String()
	resp.Hello = nil
	resp.Outcomes = nil
	tab := make([]string, r.Count())
	for i := range tab {
		tab[i] = r.String()
	}
	ref := func() string {
		i := r.Uvarint()
		if i == 0 {
			return ""
		}
		if i > uint64(len(tab)) {
			r.Fail("string %d of a %d-string table", i, len(tab))
			return ""
		}
		return tab[i-1]
	}
	n := r.Count()
	resp.Outcomes = make([]*Outcome, 0, n)
	for i := 0; i < n; i++ {
		o := newOutcome() // pooled; the consumer hands it back via Recycle
		flags := r.Byte()
		if flags&^(outCrashed|outHasCoverage) != 0 {
			return fmt.Errorf("exec: binary frame: outcome flags %#02x", flags)
		}
		o.Crashed = flags&outCrashed != 0
		o.Name = ref()
		if o.Crashed {
			o.CrashKind = int(r.Uvarint())
			o.CrashReason = ref()
			o.CrashThread = int(r.Uvarint())
		}
		o.WorkErr = ref()
		o.Signature = ref()
		o.Injections = int(r.Uvarint())
		if flags&outHasCoverage != 0 {
			if blocks == nil {
				return fmt.Errorf("exec: binary frame: coverage of a system with no block universe checked at the hello")
			}
			size := blocks.Len()
			words := (size + 63) / 64
			nw := r.Count()
			if nw > words {
				return fmt.Errorf("exec: binary frame: %d coverage words over a %d-block universe", nw, size)
			}
			raw := r.Take(8 * nw)
			if r.Err() != nil {
				return wireErr(r.Err())
			}
			if cap(o.Cov) >= nw {
				o.Cov = o.Cov[:nw]
			} else {
				o.Cov = make(coverage.Bitset, nw)
			}
			for w := range o.Cov {
				o.Cov[w] = binary.LittleEndian.Uint64(raw[8*w:])
			}
			if nw == words && size%64 != 0 && o.Cov[nw-1]>>(size%64) != 0 {
				return fmt.Errorf("exec: binary frame: coverage bit past the %d-block universe", size)
			}
			o.CovU = blocks
		}
		if r.Err() != nil {
			return wireErr(r.Err())
		}
		resp.Outcomes = append(resp.Outcomes, o)
	}
	return wireErr(r.Finish())
}
