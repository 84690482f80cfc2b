package serve

import (
	"fmt"
	"time"
)

// opSpec declares one protocol operation: its wire name (the JSON "op"
// string), its binary opcode (request payload byte 8), whether it is a
// test-only op, the binary codec of its request fields, and its handler.
// opTable is the one list of operations; the binary request codec, the
// server's dispatch and per-op counters, and the tests' op coverage all
// derive from it. Adding an op means adding one entry here, its handler,
// and its rows in docs/SERVICE.md.
type opSpec struct {
	name string
	code byte
	// test ops are registered only with Options.EnableTestOps; any other
	// server answers them unknown-op.
	test bool
	// enc appends the op's binary request fields after the opcode, dec
	// reads them back into req; both nil means the op has no fields.
	enc func(dst []byte, req *Request) ([]byte, error)
	dec func(r *binReader, req *Request)
	run func(s *Server, req Request, cw *connWriter) opResult
}

// binOpBatch is the routes-batch opcode, which the server peeks at to
// send binary batches down the in-place fast path (admitBinary).
const binOpBatch = 2

var opTable = []opSpec{
	{name: OpRoute, code: 1, enc: encPairReq, dec: decPairReq, run: plain((*Server).handleRoute)},
	{name: OpRoutesBatch, code: binOpBatch, enc: encBatchReq, dec: decBatchReq, run: plain((*Server).handleRoutesBatch)},
	{name: OpEstimate, code: 3, enc: encPairReq, dec: decPairReq, run: plain((*Server).handleEstimate)},
	{name: OpTopoLoad, code: 4, enc: encTopoLoadReq, dec: decTopoLoadReq, run: plain((*Server).handleTopoLoad)},
	{name: OpTopoEvict, code: 5, enc: encTopoReq, dec: decTopoReq, run: plain((*Server).handleTopoEvict)},
	{name: OpStats, code: 6, run: plain((*Server).handleStats)},
	{name: OpHealth, code: 7, run: plain((*Server).handleHealth)},
	{name: OpSweep, code: 8, enc: encSweepReq, dec: decSweepReq, run: (*Server).handleSweep},
	{name: OpTestSleep, code: 9, test: true,
		enc: func(dst []byte, req *Request) ([]byte, error) { return appendU32(dst, uint32(req.SleepMS)), nil },
		dec: func(r *binReader, req *Request) { req.SleepMS = int(r.u32()) },
		run: func(_ *Server, req Request, _ *connWriter) opResult {
			time.Sleep(time.Duration(req.SleepMS) * time.Millisecond)
			return result(okResponse(req.ID))
		}},
	{name: OpTestCrash, code: 10, test: true,
		run: func(*Server, Request, *connWriter) opResult { panic("injected test-crash") }},
}

// plain adapts a handler that answers with a single Response.
func plain(h func(*Server, Request) Response) func(*Server, Request, *connWriter) opResult {
	return func(s *Server, req Request, _ *connWriter) opResult { return result(h(s, req)) }
}

func opByCode(code byte) *opSpec {
	for i := range opTable {
		if opTable[i].code == code {
			return &opTable[i]
		}
	}
	return nil
}

func opByName(name string) *opSpec {
	for i := range opTable {
		if opTable[i].name == name {
			return &opTable[i]
		}
	}
	return nil
}

// AppendBinaryRequest encodes one request as a v2 payload (no length
// prefix — AppendFrame adds it). The id is the binary protocol's
// numeric request tag; 0 means "no id". Request.ID is ignored.
func AppendBinaryRequest(dst []byte, id uint64, req *Request) ([]byte, error) {
	op := opByName(req.Op)
	if op == nil {
		return dst, fmt.Errorf("serve: op %q has no binary encoding", req.Op)
	}
	dst = appendU64(dst, id)
	dst = append(dst, op.code)
	if op.enc == nil {
		return dst, nil
	}
	return op.enc(dst, req)
}

// DecodeBinaryRequest decodes a v2 request payload into the shared
// Request shape (the op as its protocol string, the binary id rendered
// through binFormatID), so both codecs dispatch through identical
// handlers. The id is returned even when decoding fails mid-payload, so
// the error frame can still echo it.
func DecodeBinaryRequest(payload []byte) (id uint64, req Request, err error) {
	r := &binReader{b: payload}
	id = r.u64()
	code := r.u8()
	if r.err != nil {
		return id, req, r.err
	}
	req.V = ProtocolVersion
	req.ID = binFormatID(id)
	op := opByCode(code)
	if op == nil {
		// Unknown opcode: no fields are decoded, and the synthetic op
		// name answers unknown-op like an unknown JSON op string.
		// Trailing bytes are tolerated here (a newer client's fields),
		// matching JSON's unknown-field tolerance.
		req.Op = fmt.Sprintf("binary-op-%d", code)
		return id, req, nil
	}
	req.Op = op.name
	if op.dec != nil {
		op.dec(r, &req)
	}
	return id, req, r.finish()
}

// route, estimate: str topo, u32 src, u32 dst.
func encPairReq(dst []byte, req *Request) ([]byte, error) {
	if req.Src == nil || req.Dst == nil {
		return dst, fmt.Errorf("serve: %s needs src and dst", req.Op)
	}
	dst, err := appendStr(dst, req.Topo)
	if err != nil {
		return dst, err
	}
	dst = appendU32(dst, uint32(*req.Src))
	return appendU32(dst, uint32(*req.Dst)), nil
}

func decPairReq(r *binReader, req *Request) {
	req.Topo = r.str()
	src, dst := r.i32(), r.i32()
	req.Src, req.Dst = &src, &dst
}

// routes-batch: str topo, pair list. The protocol-level batch cap is the
// handler's call — an oversized-but-well-framed batch must answer
// batch-too-large exactly like its JSON twin.
func encBatchReq(dst []byte, req *Request) ([]byte, error) {
	dst, err := appendStr(dst, req.Topo)
	if err != nil {
		return dst, err
	}
	return appendPairs(dst, req.Pairs), nil
}

func decBatchReq(r *binReader, req *Request) {
	req.Topo = r.str()
	req.Pairs = r.pairs()
}

// topo-evict: str topo.
func encTopoReq(dst []byte, req *Request) ([]byte, error) { return appendStr(dst, req.Topo) }
func decTopoReq(r *binReader, req *Request)               { req.Topo = r.str() }

// topo-load: the TopoParams fields in declaration order.
func encTopoLoadReq(dst []byte, req *Request) ([]byte, error) {
	p := req.Params
	if p == nil {
		p = &TopoParams{}
	}
	dst, err := appendStr(dst, p.Topo)
	if err != nil {
		return dst, err
	}
	dst = appendU32(dst, uint32(p.N))
	dst = appendU32(dst, uint32(p.X))
	dst = appendU32(dst, uint32(p.Y))
	if dst, err = appendStr(dst, p.Selector); err != nil {
		return dst, err
	}
	dst = appendU32(dst, uint32(p.K))
	dst = appendU64(dst, p.Seed)
	dst = appendU32(dst, uint32(p.TopoSample))
	if dst, err = appendStr(dst, p.Mechanism); err != nil {
		return dst, err
	}
	if dst, err = appendStr(dst, p.Estimator); err != nil {
		return dst, err
	}
	return appendU32(dst, uint32(p.PairSample)), nil
}

func decTopoLoadReq(r *binReader, req *Request) {
	p := &TopoParams{}
	p.Topo = r.str()
	p.N = int(r.i32())
	p.X = int(r.i32())
	p.Y = int(r.i32())
	p.Selector = r.str()
	p.K = int(r.i32())
	p.Seed = r.u64()
	p.TopoSample = int(r.i32())
	p.Mechanism = r.str()
	p.Estimator = r.str()
	p.PairSample = int(r.i32())
	req.Params = p
}

// sweep: str topo, u32 count, u64 seed, u32 chunk, pair list.
func encSweepReq(dst []byte, req *Request) ([]byte, error) {
	sp := req.Sweep
	if sp == nil {
		sp = &SweepParams{}
	}
	dst, err := appendStr(dst, req.Topo)
	if err != nil {
		return dst, err
	}
	dst = appendU32(dst, uint32(sp.Count))
	dst = appendU64(dst, sp.Seed)
	dst = appendU32(dst, uint32(sp.Chunk))
	return appendPairs(dst, sp.Pairs), nil
}

func decSweepReq(r *binReader, req *Request) {
	sp := &SweepParams{}
	req.Topo = r.str()
	sp.Count = int(r.i32())
	sp.Seed = r.u64()
	sp.Chunk = int(r.i32())
	sp.Pairs = r.pairs()
	req.Sweep = sp
}
