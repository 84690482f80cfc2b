// Binary protocol v2: the length-prefixed frame codec negotiated
// per-connection alongside the JSON v1 line protocol. The full spec a
// third-party client needs — negotiation, frame layout, every op's
// encoding, a worked hex transcript — is docs/SERVICE.md ("Binary
// protocol v2"); this file and each op's request-field codec in opTable
// (ops.go) are the reference implementation, pinned by the golden
// fixtures under testdata/v2 and fuzzed by FuzzBinaryFrame,
// FuzzBinaryBatch and FuzzBatchCall.
//
// Conventions follow the JFPC on-disk path cache (internal/paths):
// little-endian fixed-width integers, length-prefixed strings, every
// count bounds-checked against its remaining bytes before a single
// allocation, floats as IEEE 754 bits. Unlike JFPC there is no
// checksum: frames ride a stream transport whose integrity is the
// kernel's job, exactly as the JSON protocol already assumes.
package serve

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
)

// BinaryVersion is the binary protocol generation, carried in the last
// preamble byte. The JSON protocol stays ProtocolVersion 1; the binary
// framing is generation 2 of the wire format.
const BinaryVersion = 2

// BinaryPreamble opens a binary connection: the client sends these five
// bytes immediately after connecting and the server echoes them before
// its first response frame. Byte 0 is NUL — a byte no JSON v1 frame can
// start with — so the server can sniff one byte to pick the codec;
// bytes 1..3 are "JFB"; byte 4 is BinaryVersion.
var BinaryPreamble = [5]byte{0x00, 'J', 'F', 'B', BinaryVersion}

// maxBinaryString bounds one length-prefixed string (topology keys run
// ~90 bytes; error messages a few hundred).
const maxBinaryString = 4096

// Binary response kinds (response payload byte 8).
const (
	binKindError      = 0
	binKindOK         = 1
	binKindRoute      = 2
	binKindBatch      = 3
	binKindEstimate   = 4
	binKindTopo       = 5
	binKindStats      = 6
	binKindHealth     = 7
	binKindSweepStart = 8
	binKindSweepChunk = 9
	binKindSweepDone  = 10
)

// Topo-result flag bits (binKindTopo).
const (
	binTopoAlreadyLoaded = 1 << 0
	binTopoCacheHit      = 1 << 1
)

var (
	// ErrFrameTooLarge reports a length prefix over MaxFrameBytes (or
	// zero); the peer's framing can no longer be trusted and the
	// connection must close, mirroring the JSON frame-too-large rule.
	ErrFrameTooLarge = errors.New("serve: binary frame length exceeds MaxFrameBytes")
	errZeroFrame     = errors.New("serve: zero-length binary frame")
	errTruncated     = errors.New("serve: truncated binary payload")
	errTrailing      = errors.New("serve: trailing bytes after binary payload")
)

var le = binary.LittleEndian

// AppendFrame appends payload as one length-prefixed binary frame.
func AppendFrame(dst, payload []byte) []byte {
	dst = le.AppendUint32(dst, uint32(len(payload)))
	return append(dst, payload...)
}

// ReadFrame reads one length-prefixed frame, reusing *buf when it has
// capacity. It returns ErrFrameTooLarge for a prefix over MaxFrameBytes
// and errZeroFrame for an empty one; both mean the stream is done.
func ReadFrame(br *bufio.Reader, buf *[]byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, err
	}
	n := le.Uint32(hdr[:])
	if n == 0 {
		return nil, errZeroFrame
	}
	if n > MaxFrameBytes {
		return nil, ErrFrameTooLarge
	}
	if cap(*buf) < int(n) {
		*buf = make([]byte, n)
	}
	p := (*buf)[:n]
	if _, err := io.ReadFull(br, p); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return p, nil
}

// binReader decodes one payload with saturating error state: after the
// first underrun every read returns zero and err is set, so decoders
// read straight through and check once (the JFPC leReader idiom).
type binReader struct {
	b   []byte
	off int
	err error
}

func (r *binReader) fail() {
	if r.err == nil {
		r.err = errTruncated
	}
	r.off = len(r.b)
}

func (r *binReader) need(n int) bool {
	if r.err != nil || len(r.b)-r.off < n {
		r.fail()
		return false
	}
	return true
}

func (r *binReader) u8() byte {
	if !r.need(1) {
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *binReader) u16() uint16 {
	if !r.need(2) {
		return 0
	}
	v := le.Uint16(r.b[r.off:])
	r.off += 2
	return v
}

func (r *binReader) u32() uint32 {
	if !r.need(4) {
		return 0
	}
	v := le.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *binReader) u64() uint64 {
	if !r.need(8) {
		return 0
	}
	v := le.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *binReader) i32() int32   { return int32(r.u32()) }
func (r *binReader) f64() float64 { return math.Float64frombits(r.u64()) }

// view returns the next n bytes without copying; they alias the payload.
func (r *binReader) view(n int) []byte {
	if !r.need(n) {
		return nil
	}
	v := r.b[r.off : r.off+n]
	r.off += n
	return v
}

// strView reads one length-prefixed string as a view into the payload.
func (r *binReader) strView() []byte {
	n := int(r.u16())
	if n > maxBinaryString {
		r.fail()
		return nil
	}
	return r.view(n)
}

func (r *binReader) str() string { return string(r.strView()) }

// pairs reads a pair list: u32 count, count × (u32 src, u32 dst). The
// count must fit the remaining bytes before a single allocation; an
// empty list decodes as nil, like an absent JSON "pairs".
func (r *binReader) pairs() [][2]int32 {
	n := int(r.u32())
	if !r.need(8*n) || n == 0 {
		return nil
	}
	out := make([][2]int32, n)
	for i := range out {
		out[i] = [2]int32{r.i32(), r.i32()}
	}
	return out
}

// finish asserts the payload was consumed exactly.
func (r *binReader) finish() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return errTrailing
	}
	return nil
}

// Append-style encoder helpers.
func appendU16(dst []byte, v uint16) []byte { return le.AppendUint16(dst, v) }
func appendU32(dst []byte, v uint32) []byte { return le.AppendUint32(dst, v) }
func appendU64(dst []byte, v uint64) []byte { return le.AppendUint64(dst, v) }
func appendF64(dst []byte, v float64) []byte {
	return le.AppendUint64(dst, math.Float64bits(v))
}

// appendPairs encodes a pair list (routes-batch and sweep requests).
func appendPairs(dst []byte, pairs [][2]int32) []byte {
	dst = appendU32(dst, uint32(len(pairs)))
	for _, p := range pairs {
		dst = appendU32(dst, uint32(p[0]))
		dst = appendU32(dst, uint32(p[1]))
	}
	return dst
}

func appendStr(dst []byte, s string) ([]byte, error) {
	if len(s) > maxBinaryString {
		return dst, fmt.Errorf("serve: string of %d bytes exceeds the %d-byte wire limit", len(s), maxBinaryString)
	}
	dst = appendU16(dst, uint16(len(s)))
	return append(dst, s...), nil
}

// binFormatID renders a binary frame id as the protocol's string id:
// id 0 is reserved for "no id" (pre-parse errors, refused connections)
// and maps to the empty string.
func binFormatID(id uint64) string {
	if id == 0 {
		return ""
	}
	return strconv.FormatUint(id, 10)
}

// binParseID maps a string id back onto the binary frame id; non-numeric
// ids (a JSON-side convention) collapse to 0.
func binParseID(id string) uint64 {
	if id == "" {
		return 0
	}
	n, err := strconv.ParseUint(id, 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// appendRouteResult encodes one route: path length, nodes, then the
// chosen candidate index (two's complement; -1 = outside the stored
// set). Hops is not carried — it is len(path)-1 by definition.
func appendRouteResult(dst []byte, r *RouteResult) []byte {
	dst = appendU16(dst, uint16(len(r.Path)))
	for _, n := range r.Path {
		dst = appendU32(dst, uint32(n))
	}
	return appendU32(dst, uint32(int32(r.Index)))
}

func (r *binReader) routeResult() *RouteResult {
	n := int(r.u16())
	if !r.need(4 * n) {
		return nil
	}
	rr := &RouteResult{Path: make([]int32, n)}
	for i := range rr.Path {
		rr.Path[i] = r.i32()
	}
	rr.Index = int(r.i32())
	rr.Hops = len(rr.Path) - 1
	return rr
}

// appendBatchEntries encodes a batch/sweep-chunk entry list: per entry
// one tag byte (0 = error code string, 1 = route).
func appendBatchEntries(dst []byte, entries []BatchEntry) ([]byte, error) {
	var err error
	dst = appendU32(dst, uint32(len(entries)))
	for i := range entries {
		if e := &entries[i]; e.Route != nil {
			dst = append(dst, 1)
			dst = appendRouteResult(dst, e.Route)
		} else {
			dst = append(dst, 0)
			if dst, err = appendStr(dst, e.Err); err != nil {
				return dst, err
			}
		}
	}
	return dst, nil
}

// batchEntries decodes a batch/sweep-chunk entry list into one
// []BatchEntry, one []RouteResult for the routed entries and one node
// arena holding every path, whatever the entry count (plus a string per
// error entry). Each path is a capacity-capped window of the arena, so
// appending to one path cannot overwrite the next. A first pass over a
// copy of the reader validates the entries and sizes the routes and the
// arena from bytes already present, so nothing is allocated ahead of a
// bounds check; the second pass fills them.
func (r *binReader) batchEntries() []BatchEntry {
	n := int(r.u32())
	// Each entry is at least 3 bytes (tag + empty code string), so the
	// count is bounded by the remaining payload before any allocation.
	if !r.need(3 * n) {
		return nil
	}
	scan := *r
	routed, nodes := 0, 0
	for i := 0; i < n && scan.err == nil; i++ {
		switch scan.u8() {
		case 1:
			k := int(scan.u16())
			scan.view(4*k + 4) // the nodes and the index
			routed++
			nodes += k
		case 0:
			scan.strView()
		default:
			scan.fail()
		}
	}
	if scan.err != nil {
		*r = scan
		return nil
	}
	entries := make([]BatchEntry, n)
	routes := make([]RouteResult, routed)
	arena := make([]int32, nodes)
	for i := range entries {
		if r.u8() == 0 {
			entries[i].Err = r.str()
			continue
		}
		k := int(r.u16())
		path := arena[:k:k]
		arena = arena[k:]
		for j := range path {
			path[j] = r.i32()
		}
		rr := &routes[0]
		routes = routes[1:]
		*rr = RouteResult{Path: path, Index: int(r.i32()), Hops: k - 1}
		entries[i].Route = rr
	}
	return entries
}

// AppendBinaryResponse encodes one response as a v2 payload. The kind
// byte is derived from which payload field is set; a bare ok response
// (topo-evict, test-sleep) is binKindOK.
func AppendBinaryResponse(dst []byte, resp *Response) ([]byte, error) {
	dst = appendU64(dst, binParseID(resp.ID))
	var err error
	switch {
	case resp.Error != nil:
		dst = append(dst, binKindError)
		if dst, err = appendStr(dst, resp.Error.Code); err != nil {
			return dst, err
		}
		msg := resp.Error.Message
		if len(msg) > maxBinaryString {
			msg = msg[:maxBinaryString]
		}
		return appendStr(dst, msg)
	case resp.Route != nil:
		dst = append(dst, binKindRoute)
		return appendRouteResult(dst, resp.Route), nil
	case resp.Batch != nil:
		dst = append(dst, binKindBatch)
		dst = appendU32(dst, uint32(resp.Batch.Routed))
		return appendBatchEntries(dst, resp.Batch.Entries)
	case resp.Estimate != nil:
		e := resp.Estimate
		dst = append(dst, binKindEstimate)
		dst = appendU32(dst, uint32(e.Candidates))
		dst = appendU32(dst, uint32(e.MinHops))
		dst = appendF64(dst, e.AvgHops)
		dst = appendU32(dst, uint32(e.MaxShare))
		return appendF64(dst, e.Throughput), nil
	case resp.Topo != nil:
		t := resp.Topo
		dst = append(dst, binKindTopo)
		if dst, err = appendStr(dst, t.Key); err != nil {
			return dst, err
		}
		var flags byte
		if t.AlreadyLoaded {
			flags |= binTopoAlreadyLoaded
		}
		if t.CacheHit {
			flags |= binTopoCacheHit
		}
		dst = append(dst, flags)
		dst = appendU32(dst, uint32(t.Switches))
		dst = appendU32(dst, uint32(t.Terminals))
		dst = appendU32(dst, uint32(t.Pairs))
		dst = appendU32(dst, uint32(t.K))
		return appendF64(dst, t.LoadSeconds), nil
	case resp.Stats != nil:
		return appendStats(dst, resp.Stats)
	case resp.Health != nil:
		h := resp.Health
		dst = append(dst, binKindHealth)
		var ready byte
		if h.Ready {
			ready = 1
		}
		dst = append(dst, ready)
		dst = appendF64(dst, h.UptimeSeconds)
		dst = appendU32(dst, uint32(h.Topos))
		dst = appendU32(dst, uint32(h.Conns))
		dst = appendU32(dst, uint32(h.MaxConns))
		dst = appendU32(dst, uint32(h.InFlight))
		dst = appendU32(dst, uint32(h.MaxInFlight))
		dst = appendU64(dst, uint64(h.Shed))
		dst = appendU64(dst, uint64(h.ConnShed))
		dst = appendU64(dst, uint64(h.Panics))
		dst = appendU64(dst, uint64(h.HandlerTimeouts))
		dst = appendU64(dst, uint64(h.IOTimeouts))
		dst = appendU32(dst, uint32(h.SweepsActive))
		return appendU32(dst, uint32(h.MaxSweeps)), nil
	case resp.Sweep != nil:
		s := resp.Sweep
		dst = append(dst, binKindSweepStart)
		dst = appendU32(dst, uint32(s.TotalPairs))
		dst = appendU32(dst, uint32(s.ChunkSize))
		return appendU32(dst, uint32(s.Chunks)), nil
	case resp.SweepChunk != nil:
		c := resp.SweepChunk
		dst = append(dst, binKindSweepChunk)
		dst = appendU32(dst, uint32(c.Seq))
		dst = appendU32(dst, uint32(c.Routed))
		return appendBatchEntries(dst, c.Entries)
	case resp.SweepDone != nil:
		d := resp.SweepDone
		dst = append(dst, binKindSweepDone)
		dst = appendU32(dst, uint32(d.Chunks))
		dst = appendU64(dst, uint64(d.Routed))
		return appendU64(dst, uint64(d.Failed)), nil
	}
	return append(dst, binKindOK), nil
}

func appendStats(dst []byte, st *StatsResult) ([]byte, error) {
	var err error
	dst = append(dst, binKindStats)
	dst = appendF64(dst, st.UptimeSeconds)
	dst = appendU64(dst, uint64(st.Requests))
	dst = appendU64(dst, uint64(st.RouteLookups))
	dst = appendF64(dst, st.QPS)
	dst = appendU64(dst, uint64(st.Latency.Count))
	dst = appendF64(dst, st.Latency.MeanMicros)
	dst = appendF64(dst, st.Latency.P50Micros)
	dst = appendF64(dst, st.Latency.P90Micros)
	dst = appendF64(dst, st.Latency.P99Micros)
	ops := make([]string, 0, len(st.PerOp))
	for op := range st.PerOp {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	dst = appendU16(dst, uint16(len(ops)))
	for _, op := range ops {
		if dst, err = appendStr(dst, op); err != nil {
			return dst, err
		}
		dst = appendU64(dst, uint64(st.PerOp[op]))
	}
	dst = appendU16(dst, uint16(len(st.Topos)))
	for _, ti := range st.Topos {
		if dst, err = appendStr(dst, ti.Key); err != nil {
			return dst, err
		}
		dst = appendU32(dst, uint32(ti.Switches))
		dst = appendU32(dst, uint32(ti.Pairs))
		dst = appendU32(dst, uint32(ti.K))
		if dst, err = appendStr(dst, ti.Mechanism); err != nil {
			return dst, err
		}
		if dst, err = appendStr(dst, ti.Estimator); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// DecodeBinaryResponse decodes a v2 response payload into the shared
// Response shape (the binary id rendered through binFormatID), the
// exact inverse of AppendBinaryResponse.
func DecodeBinaryResponse(payload []byte) (Response, error) {
	r := &binReader{b: payload}
	resp := Response{V: ProtocolVersion}
	resp.ID = binFormatID(r.u64())
	kind := r.u8()
	if r.err != nil {
		return resp, r.err
	}
	resp.OK = kind != binKindError
	switch kind {
	case binKindError:
		resp.Error = &ErrorInfo{Code: r.str(), Message: r.str()}
	case binKindOK:
	case binKindRoute:
		resp.Route = r.routeResult()
	case binKindBatch:
		b := &BatchResult{Routed: int(r.i32())}
		b.Entries = r.batchEntries()
		resp.Batch = b
	case binKindEstimate:
		e := &EstimateResult{}
		e.Candidates = int(r.i32())
		e.MinHops = int(r.i32())
		e.AvgHops = r.f64()
		e.MaxShare = int(r.i32())
		e.Throughput = r.f64()
		resp.Estimate = e
	case binKindTopo:
		t := &TopoResult{Key: r.str()}
		flags := r.u8()
		t.AlreadyLoaded = flags&binTopoAlreadyLoaded != 0
		t.CacheHit = flags&binTopoCacheHit != 0
		t.Switches = int(r.i32())
		t.Terminals = int(r.i32())
		t.Pairs = int(r.i32())
		t.K = int(r.i32())
		t.LoadSeconds = r.f64()
		resp.Topo = t
	case binKindStats:
		resp.Stats = r.stats()
	case binKindHealth:
		h := &HealthResult{Ready: r.u8() == 1}
		h.UptimeSeconds = r.f64()
		h.Topos = int(r.i32())
		h.Conns = int(r.i32())
		h.MaxConns = int(r.i32())
		h.InFlight = int(r.i32())
		h.MaxInFlight = int(r.i32())
		h.Shed = int64(r.u64())
		h.ConnShed = int64(r.u64())
		h.Panics = int64(r.u64())
		h.HandlerTimeouts = int64(r.u64())
		h.IOTimeouts = int64(r.u64())
		h.SweepsActive = int(r.i32())
		h.MaxSweeps = int(r.i32())
		resp.Health = h
	case binKindSweepStart:
		s := &SweepStart{}
		s.TotalPairs = int(r.i32())
		s.ChunkSize = int(r.i32())
		s.Chunks = int(r.i32())
		resp.Sweep = s
	case binKindSweepChunk:
		c := &SweepChunk{}
		c.Seq = int(r.i32())
		c.Routed = int(r.i32())
		c.Entries = r.batchEntries()
		resp.SweepChunk = c
	case binKindSweepDone:
		d := &SweepDone{}
		d.Chunks = int(r.i32())
		d.Routed = int64(r.u64())
		d.Failed = int64(r.u64())
		resp.SweepDone = d
	default:
		return resp, fmt.Errorf("serve: unknown binary response kind %d", kind)
	}
	return resp, r.finish()
}

func (r *binReader) stats() *StatsResult {
	st := &StatsResult{}
	st.UptimeSeconds = r.f64()
	st.Requests = int64(r.u64())
	st.RouteLookups = int64(r.u64())
	st.QPS = r.f64()
	st.Latency.Count = int64(r.u64())
	st.Latency.MeanMicros = r.f64()
	st.Latency.P50Micros = r.f64()
	st.Latency.P90Micros = r.f64()
	st.Latency.P99Micros = r.f64()
	nops := int(r.u16())
	if !r.need(10 * nops) {
		return st
	}
	st.PerOp = make(map[string]int64, nops)
	for i := 0; i < nops; i++ {
		op := r.str()
		st.PerOp[op] = int64(r.u64())
		if r.err != nil {
			return st
		}
	}
	ntopos := int(r.u16())
	if !r.need(18 * ntopos) {
		return st
	}
	st.Topos = make([]TopoInfo, ntopos)
	for i := range st.Topos {
		ti := &st.Topos[i]
		ti.Key = r.str()
		ti.Switches = int(r.i32())
		ti.Pairs = int(r.i32())
		ti.K = int(r.i32())
		ti.Mechanism = r.str()
		ti.Estimator = r.str()
		if r.err != nil {
			return st
		}
	}
	return st
}
