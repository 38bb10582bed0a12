package exec

import (
	"bytes"
	"fmt"
	"testing"

	"lfi/internal/coverage"
	"lfi/internal/scenario"
)

// fuzzUniverse is a fixed 130-block universe (three bitset words, the
// last one partial) shared by the wire round-trip tests.
func fuzzUniverse() []string {
	ids := make([]string, 130)
	for i := range ids {
		ids[i] = fmt.Sprintf("minidb.c:%03d", i)
	}
	return ids
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
//     encodeRunResponse → decodeRunResponse bit-for-bit, both with the
//     universe inline (first response on a connection) and by tag
//     (steady state);
//   - a run request must survive encodeRunRequest → decodeRunRequest;
//   - a cancel frame must survive encodeCancel → frameID;
//   - arbitrary bytes fed to the decoders and to frameID may error but
//     never panic.
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
	idx := coverage.NewIndex(fuzzUniverse())
	f.Fuzz(func(t *testing.T, data []byte) {
		// Decoder robustness: whatever the bytes, no panic. (The frame
		// layer only hands payloads to a decoder when isBinaryFrame
		// matched, so replicate that guard.)
		if isBinaryFrame(data, frameRunReq) {
			_, _, _ = decodeRunRequest(data, scenario.ParseString)
		}
		if isBinaryFrame(data, frameRunResp) {
			var resp response
			_ = decodeRunResponse(data, &resp, map[uint64]*coverage.Index{})
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

		// Structured response round trip, inline universe then by tag.
		outs := outcomesFromBytes(data, idx)
		errStr := ""
		if len(data) > 0 && data[0]&0x80 != 0 {
			errStr = "mid-batch failure"
		}
		universes := map[uint64]*coverage.Index{}
		for round, inline := range [][]string{idx.IDs(), nil} {
			payload := encodeRunResponse(7, errStr, outs, 3, inline)
			var resp response
			if err := decodeRunResponse(payload, &resp, universes); err != nil {
				t.Fatalf("round %d: decode: %v", round, err)
			}
			if resp.ID != 7 || resp.Error != errStr {
				t.Fatalf("round %d: header (%d, %q) != (7, %q)", round, resp.ID, resp.Error, errStr)
			}
			if len(resp.Outcomes) != len(outs) {
				t.Fatalf("round %d: %d outcomes != %d", round, len(resp.Outcomes), len(outs))
			}
			for i := range outs {
				if !outcomeEqual(outs[i], resp.Outcomes[i]) {
					t.Fatalf("round %d: outcome %d differs:\n got %+v\nwant %+v", round, i, resp.Outcomes[i], outs[i])
				}
			}
		}

		// Request round trip: system/seed/coverage from the input.
		b := &Batch{System: "minidb", Seed: 42, Scenarios: []*scenario.Scenario{sc, sc}}
		if len(data) > 2 {
			b.System = fmt.Sprintf("sys-%d", data[0])
			b.Seed = int64(data[1]) - int64(data[2])<<3
			b.Coverage = data[0]&1 != 0
		}
		id, got, err := decodeRunRequest(encodeRunRequest(9, b), scenario.ParseString)
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
	})
}

// TestDecodeUnknownUniverseTag pins the steady-state failure mode: a
// tag-only response on a connection that never saw the inline table is
// an error, not silently empty coverage.
func TestDecodeUnknownUniverseTag(t *testing.T) {
	idx := coverage.NewIndex(fuzzUniverse())
	o := &Outcome{Name: "s", Cov: coverage.NewBitset(idx.Len()), CovU: idx}
	o.Cov.Set(1)
	payload := encodeRunResponse(1, "", []*Outcome{o}, 5, nil)
	var resp response
	err := decodeRunResponse(payload, &resp, map[uint64]*coverage.Index{})
	if err == nil {
		t.Fatal("decode with unknown universe tag succeeded")
	}
}
