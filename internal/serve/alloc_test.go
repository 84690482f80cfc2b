package serve

import (
	"bufio"
	"bytes"
	"io"
	"testing"

	"repro/internal/xrand"
)

// batchPairs is the pair count of batchFixture's frame.
const batchPairs = 512

// batchFixture is the binary routes-batch fast path on its own: a
// server holding the small topology (rEDKSP k=8, KSP-adaptive,
// link-load, 2 stripes), one 512-pair v2 routes-batch payload of seeded
// pairs, and a binary connection writer that discards what it writes.
type batchFixture struct {
	srv     *Server
	payload []byte
	cw      *connWriter
}

// newBatchFixture builds the fixture and serves its frame ten times,
// growing the scratch buffer and the estimator tables.
func newBatchFixture(tb testing.TB) *batchFixture {
	tb.Helper()
	srv := NewServer(Options{Stripes: 2})
	topo, err := srv.LoadTopology(TopoParams{Topo: "small", Selector: "rEDKSP", K: 8,
		Mechanism: "ksp-adaptive", Estimator: "link-load"})
	if err != nil {
		tb.Fatal(err)
	}
	req := Request{Op: OpRoutesBatch, Topo: topo.Key}
	rng := xrand.NewPair(1, 0x62617463) // "batc"
	for i := 0; i < batchPairs; i++ {
		src := rng.IntN(topo.Switches)
		req.Pairs = append(req.Pairs, [2]int32{int32(src), int32(rng.IntNExcept(topo.Switches, src))})
	}
	payload, err := AppendBinaryRequest(nil, 42, &req)
	if err != nil {
		tb.Fatal(err)
	}
	f := &batchFixture{srv: srv, payload: payload,
		cw: &connWriter{s: srv, w: bufio.NewWriterSize(io.Discard, 64<<10), bin: true}}
	for i := 0; i < 10; i++ {
		f.frame(tb)
	}
	return f
}

// frame serves the payload through handleFrame and finishResult, as
// serveBinary does, and returns the answer, which the next frame
// overwrites.
func (f *batchFixture) frame(tb testing.TB) []byte {
	res := f.srv.handleFrame(f.payload, f.cw)
	if res.raw == nil || res.raw[8] != binKindBatch {
		tb.Fatalf("batch frame answered %+v, want a raw batch response", res.resp)
	}
	if routed := le.Uint32(res.raw[9:]); routed != batchPairs {
		tb.Fatalf("routed %d of %d pairs", routed, batchPairs)
	}
	if !f.srv.finishResult(f.cw, &res) {
		tb.Fatal("writing the batch response failed")
	}
	return res.raw
}

// TestBinaryBatchAllocs pins the routes-batch fast path's claim: once
// warm, a 512-pair binary batch frame is admitted, routed, encoded and
// written without a single allocation.
func TestBinaryBatchAllocs(t *testing.T) {
	f := newBatchFixture(t)
	if allocs := testing.AllocsPerRun(100, func() { f.frame(t) }); allocs > 0.1 {
		t.Fatalf("binary routes-batch frame allocates %.2f times, want 0", allocs)
	}
}

// BenchmarkBinaryBatch times both sides of the wire on batchFixture's
// frame:
//
//	go test ./internal/serve -run '^$' -bench BinaryBatch -benchmem
//
// route reports ns per lookup of the frame through handleFrame and
// finishResult: the daemon's decode, admission, lookup, choice, encode
// and write. decode reports ns/op and allocs/op of DecodeBinaryResponse
// on the frame's answer, the client's side.
func BenchmarkBinaryBatch(b *testing.B) {
	f := newBatchFixture(b)
	b.Run("route", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f.frame(b)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batchPairs), "ns/lookup")
	})
	b.Run("decode", func(b *testing.B) {
		answer := bytes.Clone(f.frame(b))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := DecodeBinaryResponse(answer)
			if err != nil || resp.Batch.Routed != batchPairs {
				b.Fatalf("decoded %+v: %v", resp.Batch, err)
			}
		}
	})
}
