package serve

import "testing"

// FuzzBatchCall fuzzes the server's in-place routes-batch decoder
// against the generic one: for every payload carrying the routes-batch
// opcode, decodeBatchCall and DecodeBinaryRequest must accept or reject
// it together, with the same error, and agree on the id, topology key
// and pairs. The fast path would otherwise answer frames the generic
// codec (and so the spec) rejects, or the other way round.
func FuzzBatchCall(f *testing.F) {
	base, err := AppendBinaryRequest(nil, 7, &Request{
		Op: OpRoutesBatch, Topo: "topo-A", Pairs: [][2]int32{{0, 1}, {5, 2}, {-3, 9}},
	})
	if err != nil {
		f.Fatal(err)
	}
	empty, err := AppendBinaryRequest(nil, 8, &Request{Op: OpRoutesBatch, Topo: "topo-A"})
	if err != nil {
		f.Fatal(err)
	}
	long := appendU16(append([]byte(nil), base[:9]...), maxBinaryString+1) // string over the bound
	long = append(append(long, make([]byte, maxBinaryString+1)...), 0, 0, 0, 0)
	lying := append(append([]byte(nil), base[:9]...), 0, 0, 0xff, 0xff, 0xff, 0x7f) // 2^31-1 pairs
	for _, s := range [][]byte{
		base,
		empty,
		base[:len(base)-3],                    // truncated mid-pair
		append(base[:len(base):len(base)], 0), // one trailing byte
		base[:9],                              // opcode only
		base[:12],                             // truncated topo string
		long,
		lying,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 9 {
			return
		}
		payload := append([]byte(nil), data...)
		payload[8] = binOpBatch
		c, cerr := decodeBatchCall(payload)
		id, req, err := DecodeBinaryRequest(payload)
		if cerr != err {
			t.Fatalf("in-place decoder says %v, generic decoder %v (%d-byte payload)", cerr, err, len(payload))
		}
		if c.id != id {
			t.Fatalf("in-place id %d, generic id %d", c.id, id)
		}
		if err != nil {
			return
		}
		if c.req.Op != req.Op || string(c.topo) != req.Topo || c.n != len(req.Pairs) {
			t.Fatalf("in-place %s %q %d pairs, generic %s %q %d pairs",
				c.req.Op, c.topo, c.n, req.Op, req.Topo, len(req.Pairs))
		}
		for i, p := range req.Pairs {
			src, dst := int32(le.Uint32(c.body[8*i:])), int32(le.Uint32(c.body[8*i+4:]))
			if src != p[0] || dst != p[1] {
				t.Fatalf("pair %d: in-place %d->%d, generic %d->%d", i, src, dst, p[0], p[1])
			}
		}
	})
}
