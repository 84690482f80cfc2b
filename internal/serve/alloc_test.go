package serve

import (
	"bufio"
	"io"
	"testing"
)

// TestBinaryBatchAllocs pins the routes-batch fast path's claim: once
// warm, a 512-pair binary batch frame is admitted, routed, encoded and
// written without a single allocation.
func TestBinaryBatchAllocs(t *testing.T) {
	srv := NewServer(Options{})
	topo, err := srv.LoadTopology(TopoParams{Topo: "small", K: 4})
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Op: OpRoutesBatch, Topo: topo.Key}
	for i := 0; i < 512; i++ {
		src := int32(i % topo.Switches)
		dst := int32((i*7 + 1 + i/topo.Switches) % topo.Switches)
		if dst == src {
			dst = (dst + 1) % int32(topo.Switches)
		}
		req.Pairs = append(req.Pairs, [2]int32{src, dst})
	}
	payload, err := AppendBinaryRequest(nil, 42, &req)
	if err != nil {
		t.Fatal(err)
	}
	cw := &connWriter{s: srv, w: bufio.NewWriterSize(io.Discard, 64<<10), bin: true}
	frame := func() {
		res := srv.handleFrame(payload, cw)
		if res.raw == nil || res.raw[8] != binKindBatch {
			t.Fatalf("batch frame answered %+v, want a raw batch response", res.resp)
		}
		if routed := le.Uint32(res.raw[9:]); routed != 512 {
			t.Fatalf("routed %d of 512 pairs", routed)
		}
		if !srv.finishResult(cw, &res) {
			t.Fatal("writing the batch response failed")
		}
	}
	for i := 0; i < 10; i++ {
		frame() // warm up: grow the scratch buffer and routing state
	}
	if allocs := testing.AllocsPerRun(100, frame); allocs > 0.1 {
		t.Fatalf("binary routes-batch frame allocates %.2f times, want 0", allocs)
	}
}
