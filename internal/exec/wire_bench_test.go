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
	idx := coverage.NewIndex(fuzzUniverse())
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

// BenchmarkWireEncodeResponse measures the binary encoder on
// a steady-state response (universe already sent, tag only).
func BenchmarkWireEncodeResponse(b *testing.B) {
	outs, _ := benchResponse()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(encodeRunResponse(uint64(i+1), "", outs, 1, nil)) == 0 {
			b.Fatal("empty payload")
		}
	}
}

// BenchmarkWireDecodeResponse measures the matching decoder with the
// universe already cached on the connection.
func BenchmarkWireDecodeResponse(b *testing.B) {
	outs, idx := benchResponse()
	payload := encodeRunResponse(1, "", outs, 1, nil)
	universes := map[uint64]*coverage.Index{1: idx}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var resp response
		if err := decodeRunResponse(payload, &resp, universes); err != nil {
			b.Fatal(err)
		}
		if len(resp.Outcomes) != len(outs) {
			b.Fatalf("%d outcomes", len(resp.Outcomes))
		}
		// Steady state: the consumer folds and recycles each batch.
		Recycle(resp.Outcomes)
	}
}
