package exec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"slices"
	"testing"

	"lfi/internal/coverage"
	"lfi/internal/scenario"
)

// fuzzUniverse is a fixed 130-block universe (three bitset words, the
// last one partial) shared by the wire round-trip tests.
func fuzzUniverse() *coverage.Index {
	blocks := make([]coverage.Block, 130)
	for i := range blocks {
		blocks[i] = coverage.Block{ID: fmt.Sprintf("minidb.c:%03d", i), LOC: 1}
	}
	return coverage.NewIndex(blocks)
}

// outcomesFromBytes deterministically derives a slice of outcomes from
// fuzz input: every 8 input bytes shape one outcome's flags, strings,
// and coverage words, so the fuzzer explores crashed/covered/empty
// combinations and string-table sharing without a structured corpus.
func outcomesFromBytes(data []byte, idx *coverage.Index) []*Outcome {
	var outs []*Outcome
	for i := 0; i+8 <= len(data) && len(outs) < 64; i += 8 {
		b := data[i : i+8]
		o := &Outcome{
			Name:       fmt.Sprintf("scenario-%d", b[0]%7),
			Injections: int(b[1]),
		}
		if b[2]&1 != 0 {
			o.Crashed = true
			o.CrashKind = int(b[2] >> 4)
			o.CrashReason = fmt.Sprintf("reason-%d", b[3]%3)
			o.CrashThread = int(b[3] >> 4)
		}
		if b[4]&1 != 0 {
			o.WorkErr = fmt.Sprintf("workerr-%d", b[4]%5)
		}
		if b[4]&2 != 0 {
			o.Signature = fmt.Sprintf("sig-%d", b[5]%3)
		}
		if b[6]&1 != 0 {
			cov := coverage.NewBitset(idx.Len())
			for w := range cov {
				cov[w] = uint64(b[7]) * 0x0101010101010101 >> uint(w)
			}
			// Mask bits beyond the universe: a valid bitset never
			// names a block outside it.
			cov[len(cov)-1] &= (1 << (uint(idx.Len()) % 64)) - 1
			o.Cov = cov
			o.CovU = idx
		}
		outs = append(outs, o)
	}
	return outs
}

// withinUniverse reports whether cov names only blocks of idx.
func withinUniverse(cov coverage.Bitset, idx *coverage.Index) bool {
	ok := len(cov) <= (idx.Len()+63)/64
	cov.Range(func(i int) { ok = ok && i < idx.Len() })
	return ok
}

// outcomeEqual compares the serializable fields of two outcomes,
// coverage in materialized sorted-ID form (exactly what the codec must
// preserve).
func outcomeEqual(a, b *Outcome) bool {
	if a.Name != b.Name || a.Crashed != b.Crashed || a.CrashKind != b.CrashKind ||
		a.CrashReason != b.CrashReason || a.CrashThread != b.CrashThread ||
		a.WorkErr != b.WorkErr || a.Signature != b.Signature || a.Injections != b.Injections {
		return false
	}
	ab, bb := a.BlockIDs(), b.BlockIDs()
	if len(ab) != len(bb) {
		return false
	}
	for i := range ab {
		if ab[i] != bb[i] {
			return false
		}
	}
	return true
}

// FuzzWireFrame is the binary wire codec's round-trip fuzzer, the
// wire-protocol analogue of the scenario XML FuzzRoundTrip:
//
//   - outcomes derived from the fuzz input must survive
//     encodeRunResponse → decodeRunResponse bit-for-bit;
//   - a run request must survive appendRunRequest → decodeRunRequest,
//     a scenario repeated in the batch decoding to one *Scenario;
//   - a cancel frame must survive encodeCancel → frameID;
//   - arbitrary bytes fed to the decoders and to frameID may error but
//     never panic, and a response the decoder accepts has coverage
//     only inside the universe it was decoded over.
func FuzzWireFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xB2, 0x02})
	f.Add([]byte{0xB2, 0x01, 0xff, 0xff, 0xff})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0, 0, 1, 0, 3, 0, 1, 255, 9, 9, 0, 0, 0, 0, 0, 128})
	f.Add(bytes.Repeat([]byte{0xaa}, 64))
	f.Add([]byte{0xB2, 0x03, 0x85, 0x01})
	sc, err := scenario.ParseString(`<scenario name="fuzz-read">
	  <trigger id="nth" class="CallCountTrigger"><args><n>3</n></args></trigger>
	  <function name="read" return="-1" errno="EIO"><reftrigger ref="nth" /></function>
	</scenario>`)
	if err != nil {
		f.Fatal(err)
	}
	// A request whose third entry is a back-reference to the first.
	other := &scenario.Scenario{Name: "fuzz-read-2", Triggers: sc.Triggers, Functions: sc.Functions}
	f.Add(appendRunRequest(nil, 5, &Batch{System: "minidb", Scenarios: []*scenario.Scenario{sc, other, sc}}))
	idx := fuzzUniverse()
	// A response whose coverage names block 130 of the 130-block
	// universe: the decoder must refuse it.
	past := &Outcome{Name: "s", Cov: coverage.NewBitset(idx.Len() + 1), CovU: idx}
	past.Cov.Set(idx.Len())
	f.Add(encodeRunResponse(1, "", []*Outcome{past}))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Decoder robustness: whatever the bytes, no panic. (The frame
		// layer only hands payloads to a decoder when isBinaryFrame
		// matched, so replicate that guard.)
		if isBinaryFrame(data, frameRunReq) {
			_, _, _ = decodeRunRequest(data)
		}
		if isBinaryFrame(data, frameRunResp) {
			var resp response
			if decodeRunResponse(data, &resp, idx) == nil {
				for i, o := range resp.Outcomes {
					if !withinUniverse(o.Cov, idx) {
						t.Fatalf("outcome %d decoded with coverage outside the %d-block universe: %x", i, idx.Len(), o.Cov)
					}
				}
			}
		}
		_, _ = frameID(data)

		// Cancel round trip: the id the server's read loop recovers is
		// the id the client cancelled.
		cancelID := uint64(len(data))
		for _, c := range data {
			cancelID = cancelID<<7 ^ uint64(c)
		}
		cancel := encodeCancel(cancelID)
		if !isBinaryFrame(cancel, frameCancel) {
			t.Fatalf("cancel frame %x not recognized as one", cancel)
		}
		if id, err := frameID(cancel); err != nil || id != cancelID {
			t.Fatalf("cancel id %d round-tripped as %d (%v)", cancelID, id, err)
		}

		// Structured response round trip.
		outs := outcomesFromBytes(data, idx)
		errStr := ""
		if len(data) > 0 && data[0]&0x80 != 0 {
			errStr = "mid-batch failure"
		}
		var resp response
		if err := decodeRunResponse(encodeRunResponse(7, errStr, outs), &resp, idx); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if resp.ID != 7 || resp.Error != errStr {
			t.Fatalf("header (%d, %q) != (7, %q)", resp.ID, resp.Error, errStr)
		}
		if len(resp.Outcomes) != len(outs) {
			t.Fatalf("%d outcomes != %d", len(resp.Outcomes), len(outs))
		}
		for i := range outs {
			if !outcomeEqual(outs[i], resp.Outcomes[i]) {
				t.Fatalf("outcome %d differs:\n got %+v\nwant %+v", i, resp.Outcomes[i], outs[i])
			}
		}

		// Request round trip: system/seed/coverage from the input.
		b := &Batch{System: "minidb", Seed: 42, Scenarios: []*scenario.Scenario{sc, sc}}
		if len(data) > 2 {
			b.System = fmt.Sprintf("sys-%d", data[0])
			b.Seed = int64(data[1]) - int64(data[2])<<3
			b.Coverage = data[0]&1 != 0
		}
		id, got, err := decodeRunRequest(appendRunRequest(nil, 9, b))
		if err != nil {
			t.Fatalf("request decode: %v", err)
		}
		if id != 9 || got.System != b.System || got.Seed != b.Seed || got.Coverage != b.Coverage {
			t.Fatalf("request header: got (%d %q %d %v), want (9 %q %d %v)",
				id, got.System, got.Seed, got.Coverage, b.System, b.Seed, b.Coverage)
		}
		if len(got.Scenarios) != len(b.Scenarios) {
			t.Fatalf("%d scenarios != %d", len(got.Scenarios), len(b.Scenarios))
		}
		for i := range got.Scenarios {
			if !bytes.Equal(got.Scenarios[i].Serialize(), b.Scenarios[i].Serialize()) {
				t.Fatalf("scenario %d did not round-trip", i)
			}
		}
		if got.Scenarios[0] != got.Scenarios[1] {
			t.Fatal("a scenario sent twice decoded to two scenarios")
		}
	})
}

// TestServeOldProtocolRefusedAtHello: a worker that still speaks
// protocol 3 (scenarios as canonical XML) or 4 (block-universe tables
// in run responses) is refused at the hello, before any batch could
// reach it in a format it cannot read.
func TestServeOldProtocolRefusedAtHello(t *testing.T) {
	for _, proto := range []int{3, 4} {
		t.Run(fmt.Sprintf("proto%d", proto), func(t *testing.T) {
			client, server := net.Pipe()
			go func() {
				defer server.Close()
				if _, err := readRawFrame(server); err != nil {
					return
				}
				writeFrame(server, &response{ID: 1, Hello: &helloInfo{Proto: proto, Capacity: 1, Systems: []string{"minidb"}}})
			}()
			_, err := newRemote("old-worker", client)
			var mismatch *ProtoMismatchError
			if !errors.As(err, &mismatch) || mismatch.Got != proto {
				t.Fatalf("hello from a protocol-%d worker: %v, want ProtoMismatchError", proto, err)
			}
		})
	}
}

// TestDecodeRunRequestRejects: a run request whose scenario list does
// not parse is refused whole: a back-reference to the entry itself or
// to a later one, a record that runs past the payload, and bytes after
// the last entry.
func TestDecodeRunRequestRejects(t *testing.T) {
	sc := testScenarios(t)[0]
	header := appendRunRequest(nil, 1, &Batch{System: "minidb"})
	header = header[:len(header)-1] // drop the zero scenario count
	req := func(n uint64, entries ...[]byte) []byte {
		out := binary.AppendUvarint(slices.Clone(header), n)
		for _, e := range entries {
			out = append(out, e...)
		}
		return out
	}
	record := appendRecord([]byte{0}, sc)
	if _, b, err := decodeRunRequest(req(2, record, []byte{1})); err != nil || b.Scenarios[0] != b.Scenarios[1] {
		t.Fatalf("well-formed request with a back-reference: %v", err)
	}
	for name, payload := range map[string][]byte{
		"self reference":    req(2, record, []byte{2}),
		"forward reference": req(2, []byte{2}, record),
		"record too long":   req(1, record[:len(record)-1]),
		"trailing bytes":    req(1, record, []byte{0}),
		"bad record":        req(1, []byte{0, 2, 0x80, 0x00}),
	} {
		if _, _, err := decodeRunRequest(payload); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
}
