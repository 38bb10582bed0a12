package exec

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"slices"

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
		b = appendString(b, id)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:6])
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

// Binary payloads for the hot path: run requests, run responses and
// cancels. The frame layer (4-byte length prefix) is shared with the
// JSON control methods; a binary payload is recognized by its first
// byte:
//
//	payload := 0xB2 kind body
//	kind    := 0x01 (run request) | 0x02 (run response) | 0x03 (cancel)
//
// Run request body:
//
//	uvarint id
//	string  system                  (uvarint length + bytes)
//	varint  seed                    (zigzag)
//	byte    flags                   (bit0: coverage)
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
//	byte    flags                   (bit0 crashed, bit1 has coverage bitset)
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
	reqCoverage    = 1 << 0
)

// --- encoding ----------------------------------------------------------------

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendRunRequest appends a run request's payload to out.
func appendRunRequest(out []byte, id uint64, b *Batch) []byte {
	out = append(out, frameMagic, frameRunReq)
	out = binary.AppendUvarint(out, id)
	out = appendString(out, b.System)
	out = binary.AppendVarint(out, b.Seed)
	var flags byte
	if b.Coverage {
		flags |= reqCoverage
	}
	out = append(out, flags)
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

// encodeCancel encodes a cancel frame naming an in-flight
// run request. Cancel has no response of its own: the cancelled run
// request answers with its completed prefix.
func encodeCancel(id uint64) []byte {
	out := []byte{frameMagic, frameCancel}
	return binary.AppendUvarint(out, id)
}

// frameID reads the request/response id every binary frame kind leads
// with, without decoding the rest — the server's read loop needs the
// id before the (potentially deferred) full decode.
func frameID(payload []byte) (uint64, error) {
	if len(payload) < 2 {
		return 0, fmt.Errorf("exec: binary frame of %d bytes has no header", len(payload))
	}
	d := &bdec{data: payload, off: 2}
	id := d.uvarint()
	return id, d.err
}

// respEncoder assembles one run response's string table while encoding.
type respEncoder struct {
	strs map[string]uint64 // string -> table index
	tab  []string
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

// encodeRunResponse encodes a run response's outcomes.
func encodeRunResponse(id uint64, errStr string, outs []*Outcome) []byte {
	var enc respEncoder
	// Pre-encode outcomes so the string table is complete before it is
	// written; the body is assembled after the header.
	body := make([]byte, 0, 64*len(outs))
	body = binary.AppendUvarint(body, uint64(len(outs)))
	for _, o := range outs {
		var flags byte
		if o.Crashed {
			flags |= outCrashed
		}
		if o.CovU != nil {
			flags |= outHasCoverage
		}
		body = append(body, flags)
		body = binary.AppendUvarint(body, enc.ref(o.Name))
		if o.Crashed {
			body = binary.AppendUvarint(body, uint64(o.CrashKind))
			body = binary.AppendUvarint(body, enc.ref(o.CrashReason))
			body = binary.AppendUvarint(body, uint64(o.CrashThread))
		}
		body = binary.AppendUvarint(body, enc.ref(o.WorkErr))
		body = binary.AppendUvarint(body, enc.ref(o.Signature))
		body = binary.AppendUvarint(body, uint64(o.Injections))
		if o.CovU != nil {
			body = binary.AppendUvarint(body, uint64(len(o.Cov)))
			for _, w := range o.Cov {
				body = binary.LittleEndian.AppendUint64(body, w)
			}
		}
	}
	out := []byte{frameMagic, frameRunResp}
	out = binary.AppendUvarint(out, id)
	out = appendString(out, errStr)
	out = binary.AppendUvarint(out, uint64(len(enc.tab)))
	for _, s := range enc.tab {
		out = appendString(out, s)
	}
	return append(out, body...)
}

// --- decoding ----------------------------------------------------------------

// bdec is a cursor over one binary payload; the first error sticks.
type bdec struct {
	data []byte
	off  int
	err  error
}

func (d *bdec) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("exec: truncated binary frame at offset %d", d.off)
	}
}

func (d *bdec) byte() byte {
	if d.err != nil || d.off >= len(d.data) {
		d.fail()
		return 0
	}
	b := d.data[d.off]
	d.off++
	return b
}

func (d *bdec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

func (d *bdec) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.data[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

func (d *bdec) str() string {
	n := d.uvarint()
	if d.err != nil || n > uint64(len(d.data)-d.off) {
		d.fail()
		return ""
	}
	s := string(d.data[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

// isBinaryFrame reports whether a payload is a binary frame of the
// given kind.
func isBinaryFrame(payload []byte, kind byte) bool {
	return len(payload) >= 2 && payload[0] == frameMagic && payload[1] == kind
}

// decodeRunRequest parses a binary run request. The scenarios' strings
// alias one string copy of the payload; a back-reference decodes to the
// *Scenario of the entry it names.
func decodeRunRequest(payload []byte) (id uint64, b *Batch, err error) {
	d := &bdec{data: payload, off: 2}
	id = d.uvarint()
	b = &Batch{System: d.str(), Seed: d.varint()}
	flags := d.byte()
	b.Coverage = flags&reqCoverage != 0
	n := d.uvarint()
	if d.err != nil {
		return id, nil, d.err
	}
	if n > uint64(len(payload)-d.off) { // every entry takes at least one byte
		return id, nil, fmt.Errorf("exec: binary frame: %d scenarios in %d-byte payload", n, len(payload))
	}
	var src string
	if n > 0 {
		src = string(payload)
	}
	b.Scenarios = make([]*scenario.Scenario, n)
	for i := range b.Scenarios {
		if ref := d.uvarint(); ref != 0 {
			if ref > uint64(i) {
				return id, nil, fmt.Errorf("exec: binary frame: scenario %d refers to entry %d, not an earlier one", i, ref-1)
			}
			b.Scenarios[i] = b.Scenarios[ref-1]
			continue
		}
		m := d.uvarint()
		if d.err != nil || m > uint64(len(payload)-d.off) {
			d.fail()
			return id, nil, d.err
		}
		s, err := scenario.DecodeBinary(src[d.off : d.off+int(m)])
		if err != nil {
			return id, nil, fmt.Errorf("exec: batch scenario %d: %w", i, err)
		}
		d.off += int(m)
		b.Scenarios[i] = s
	}
	if d.err == nil && d.off != len(payload) {
		return id, nil, fmt.Errorf("exec: binary frame: %d bytes after the last scenario", len(payload)-d.off)
	}
	return id, b, d.err
}

// decodeRunResponse parses a binary run response. Decoded coverage is
// over blocks, the batch system's universe the client checked at the
// hello; a response with coverage outside it, or with coverage and no
// checked universe, is refused whole.
func decodeRunResponse(payload []byte, resp *response, blocks *coverage.Index) error {
	d := &bdec{data: payload, off: 2}
	resp.ID = d.uvarint()
	resp.Error = d.str()
	resp.Hello = nil
	resp.Outcomes = nil
	nstr := d.uvarint()
	if d.err != nil || nstr > uint64(len(payload)) {
		d.fail()
		return d.err
	}
	tab := make([]string, 0, nstr)
	for i := uint64(0); i < nstr; i++ {
		tab = append(tab, d.str())
	}
	ref := func() string {
		i := d.uvarint()
		if i == 0 {
			return ""
		}
		if i > uint64(len(tab)) {
			d.fail()
			return ""
		}
		return tab[i-1]
	}
	n := d.uvarint()
	if d.err != nil || n > uint64(len(payload)) {
		d.fail()
		return d.err
	}
	resp.Outcomes = make([]*Outcome, 0, n)
	for i := uint64(0); i < n; i++ {
		o := newOutcome() // pooled; the consumer hands it back via Recycle
		flags := d.byte()
		o.Crashed = flags&outCrashed != 0
		o.Name = ref()
		if o.Crashed {
			o.CrashKind = int(d.uvarint())
			o.CrashReason = ref()
			o.CrashThread = int(d.uvarint())
		}
		o.WorkErr = ref()
		o.Signature = ref()
		o.Injections = int(d.uvarint())
		if flags&outHasCoverage != 0 {
			if blocks == nil {
				return fmt.Errorf("exec: binary frame: coverage of a system with no block universe checked at the hello")
			}
			nw := d.uvarint()
			// Divide, don't multiply: nw*8 can wrap for a hostile varint.
			if d.err != nil || nw > uint64(len(d.data)-d.off)/8 {
				d.fail()
				return d.err
			}
			size := blocks.Len()
			words := uint64(size+63) / 64
			if nw > words {
				return fmt.Errorf("exec: binary frame: %d coverage words over a %d-block universe", nw, size)
			}
			if uint64(cap(o.Cov)) >= nw {
				o.Cov = o.Cov[:nw]
			} else {
				o.Cov = make(coverage.Bitset, nw)
			}
			for w := uint64(0); w < nw; w++ {
				o.Cov[w] = binary.LittleEndian.Uint64(d.data[d.off:])
				d.off += 8
			}
			if nw == words && size%64 != 0 && o.Cov[nw-1]>>(size%64) != 0 {
				return fmt.Errorf("exec: binary frame: coverage bit past the %d-block universe", size)
			}
			o.CovU = blocks
		}
		if d.err != nil {
			return d.err
		}
		resp.Outcomes = append(resp.Outcomes, o)
	}
	return d.err
}
