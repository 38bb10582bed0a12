package exec

import (
	"testing"

	"lfi/internal/coverage"
)

// benchResponse builds a representative 32-outcome response over the
// 130-block test universe: a mix of passes, crashes with shared
// reasons, and coverage bitsets — the steady-state shape of one remote
// batch.
func benchResponse() ([]*Outcome, *coverage.Index) {
	idx := fuzzUniverse()
	outs := make([]*Outcome, 32)
	for i := range outs {
		o := &Outcome{Name: "bench-exec-read", Injections: 3}
		if i%4 == 0 {
			o.Crashed = true
			o.CrashKind = 1
			o.CrashReason = "double unlock"
			o.Signature = "close@EIO->double unlock"
		}
		cov := coverage.NewBitset(idx.Len())
		for p := 0; p < idx.Len(); p += 2 + i%3 {
			cov.Set(p)
		}
		o.Cov, o.CovU = cov, idx
		outs[i] = o
	}
	return outs, idx
}

// BenchmarkWireEncodeResponse measures the binary encoder on a
// steady-state response, reusing its encoder and frame buffer as a
// serve executor does.
func BenchmarkWireEncodeResponse(b *testing.B) {
	outs, _ := benchResponse()
	var (
		enc   respEncoder
		frame []byte
	)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame = enc.appendRunResponse(newFrame(frame), uint64(i+1), "", outs)
		if len(frame) == frameHeader {
			b.Fatal("empty payload")
		}
	}
}

// BenchmarkWireDecodeResponse measures the matching decoder over the
// universe the connection checked at the hello.
func BenchmarkWireDecodeResponse(b *testing.B) {
	outs, idx := benchResponse()
	payload := new(respEncoder).appendRunResponse(nil, 1, "", outs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var resp response
		if err := decodeRunResponse(payload, &resp, idx); err != nil {
			b.Fatal(err)
		}
		if len(resp.Outcomes) != len(outs) {
			b.Fatalf("%d outcomes", len(resp.Outcomes))
		}
		// Steady state: the consumer folds and recycles each batch.
		Recycle(resp.Outcomes)
	}
}
