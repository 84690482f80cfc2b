package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/jellyfish"
	"repro/internal/ksp"
	"repro/internal/paths"
	"repro/internal/routing"
	"repro/internal/seeds"
	"repro/internal/telemetry"
	"repro/internal/xrand"
)

// Options configures a Server. The zero value serves without limits —
// every limit and timeout below defaults to off, so embedders (tests,
// benchmarks) opt in; cmd/jfserve turns them on with production
// defaults via its flags.
type Options struct {
	// PathCache is the on-disk path-DB cache directory ("" = build
	// in-process; see docs/PATHS.md). topo-load streams warm DBs from
	// it exactly the way the experiment binaries do.
	PathCache string
	// Workers bounds build parallelism (<= 0 = GOMAXPROCS).
	Workers int
	// Logf receives one line per lifecycle event (nil = silent).
	Logf func(format string, args ...any)

	// Stripes shards each topology's mutable routing state (mechanism
	// State, load estimator, RNG) across this many independently locked
	// stripes; a source switch hashes to one stripe, so concurrent
	// adaptive choices on different stripes never contend
	// (<= 0 = GOMAXPROCS). Each stripe draws from its own
	// seeds.StripeRNG stream. Striping is statistically transparent:
	// route-choice distributions match a single-stripe server (pinned
	// by TestStripedStatisticalEquivalence), though individual choices
	// differ because each stripe has its own RNG stream.
	Stripes int

	// MaxConns bounds concurrent connections (0 = unlimited). A
	// connection over the limit receives one overloaded error frame and
	// is closed.
	MaxConns int
	// MaxInFlight bounds concurrently executing requests across all
	// connections (0 = unlimited). A request over the limit is answered
	// overloaded immediately — explicit load shedding, never queueing —
	// and the connection stays open. health is exempt.
	MaxInFlight int
	// MaxSweeps bounds concurrently streaming sweeps across all
	// connections (0 = unlimited). A sweep over the limit is answered
	// overloaded; accepted sweeps stream without holding an in-flight
	// slot.
	MaxSweeps int
	// ReadTimeout is the maximum time to receive one complete request
	// frame, and doubles as the idle timeout (0 = none). A slow-loris
	// sender trickling bytes never completes a frame in time and is
	// disconnected.
	ReadTimeout time.Duration
	// WriteTimeout is the maximum time to write one response frame
	// (0 = none). A client not draining responses is disconnected once
	// the kernel buffer backs up past the deadline.
	WriteTimeout time.Duration
	// HandlerTimeout bounds one request's handler execution (0 = none).
	// An overrunning request is answered with the timeout code and its
	// handler keeps running detached (still holding its in-flight slot,
	// so load accounting stays honest); its eventual result is dropped.
	// Note a cold topo-load of a large topology legitimately takes
	// minutes — enable this only with warm caches or -preload.
	HandlerTimeout time.Duration
	// EnableTestOps registers the test-sleep and test-crash operations
	// used by the chaos harness (internal/serve/chaos). Never set in
	// production; a normal daemon answers unknown-op.
	EnableTestOps bool
}

// stripe is one shard of a topology's mutable routing state. The
// immutable parts (DB, prewarmed View) live on the entry and are read
// lock-free; everything a Choose call mutates is striped.
type stripe struct {
	mu    sync.Mutex
	state routing.State
	est   routing.LoadEstimator
	// ll is est when the estimator is stateful link-load, nil otherwise
	// (saves a per-link type assertion on the observe path).
	ll  *routing.LinkLoadEstimator
	rng *xrand.RNG
}

// topoEntry is one resident topology: an immutable warm DB and a
// prewarmed (read-only) routing View shared by every connection, plus
// the mutable routing state sharded across stripes — a pair hashes to
// one stripe, so route requests for different stripes proceed in
// parallel while each stripe still sees a consistent choice sequence.
type topoEntry struct {
	key  string
	topo *jellyfish.Topology
	db   *paths.DB
	view *routing.View

	mechName string
	estName  string

	stripes []stripe
	// owner[n] is the index of switch n's stripe, hashed once at load.
	// Striping by source switch — not by pair — is load-bearing for
	// statistical fidelity: the link-load estimator prices a path by its
	// first link, a link out of the source, so every count a Choose for
	// src can read must live on src's stripe. choose therefore lands each
	// traversed link's increment on the stripe owning the link's source
	// switch, keeping striped servers distributionally equivalent to
	// single-stripe ones.
	owner []int32
}

// choose runs one Choose call on the source's stripe and feeds the
// chosen path's links to their stripes' estimators, taking each stripe's
// lock once: the links the source stripe owns are observed under the
// lock Choose already holds, then each other stripe the path crosses is
// locked once, at the first link it owns, for all of its links. Every
// stripe sees its links in path order, so with one connection each
// stripe's estimator sees exactly the sequence of a lock per hop.
func (e *topoEntry) choose(src, dst graph.NodeID) (graph.Path, int) {
	own := e.owner[src]
	st := &e.stripes[own]
	st.mu.Lock()
	p, idx := st.state.Choose(e.view, src, dst, st.est, st.rng)
	if p == nil || st.ll == nil {
		st.mu.Unlock()
		return p, idx
	}
	e.observeOwned(p, 0, own)
	st.mu.Unlock()
next:
	for i := 1; i+1 < len(p); i++ {
		other := e.owner[p[i]]
		for j := 0; j < i; j++ { // p[0] is src, so this skips the source stripe too
			if e.owner[p[j]] == other {
				continue next
			}
		}
		mu := &e.stripes[other].mu
		mu.Lock()
		e.observeOwned(p, i, other)
		mu.Unlock()
	}
	return p, idx
}

// observeOwned feeds the links of p from hop i on whose source switch
// stripe s owns to that stripe's estimator, whose lock the caller holds.
func (e *topoEntry) observeOwned(p graph.Path, i int, s int32) {
	ll := e.stripes[s].ll
	for ; i+1 < len(p); i++ {
		if e.owner[p[i]] == s {
			ll.ObserveLink(p[i], p[i+1])
		}
	}
}

// Server is the route-oracle daemon: one goroutine per connection over
// shared read-only path DBs. Create with NewServer, run with Serve
// (usually in a goroutine), stop with Stop — which closes the listener,
// lets in-flight requests finish writing their responses, and then
// closes every connection.
type Server struct {
	opts  Options
	start time.Time

	mu    sync.Mutex // guards topos
	topos map[string]*topoEntry

	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	quit     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	lisMu     sync.Mutex
	listeners map[net.Listener]struct{}

	requests     atomic.Int64
	routeLookups atomic.Int64
	ops          map[string]*serverOp // the ops this server answers
	latency      *telemetry.Histogram // microsecond buckets

	// Resilience state: the in-flight semaphore (nil = unlimited), the
	// instantaneous in-flight gauge, and the shed/panic/timeout
	// counters surfaced by the health op.
	inflight    chan struct{}
	inflightNow atomic.Int64
	counters    telemetry.ServiceCounters

	// Sweep state: the concurrent-sweep semaphore (nil = unlimited)
	// and the streaming-sweep gauge surfaced by health.
	sweepSem     chan struct{}
	sweepsActive atomic.Int64
}

// NewServer returns an idle server with no topologies loaded.
func NewServer(opts Options) *Server {
	s := &Server{
		opts:      opts,
		start:     time.Now(),
		topos:     make(map[string]*topoEntry),
		conns:     make(map[net.Conn]struct{}),
		quit:      make(chan struct{}),
		listeners: make(map[net.Listener]struct{}),
		ops:       make(map[string]*serverOp, len(opTable)),
		// 1 µs buckets up to ~65 ms; slower requests (topo-load builds)
		// land in the overflow bucket and read as "at least the cap".
		latency: telemetry.NewHistogram(1, 1<<16),
	}
	for i := range opTable {
		if op := &opTable[i]; !op.test || opts.EnableTestOps {
			s.ops[op.name] = &serverOp{opSpec: op}
		}
	}
	if opts.MaxInFlight > 0 {
		s.inflight = make(chan struct{}, opts.MaxInFlight)
	}
	if opts.MaxSweeps > 0 {
		s.sweepSem = make(chan struct{}, opts.MaxSweeps)
	}
	return s
}

// serverOp is one op a server answers, with its request counter (the
// stats op's per_op entry).
type serverOp struct {
	*opSpec
	requests atomic.Int64
}

// Counters exposes the resilience counters (shed, panics, timeouts) for
// embedders and tests; the wire-level view is the health op.
func (s *Server) Counters() telemetry.ServiceSnapshot { return s.counters.Snapshot() }

// InFlight reports the number of requests currently executing (the
// health op's in_flight field).
func (s *Server) InFlight() int { return int(s.inflightNow.Load()) }

// SweepsActive reports the number of sweeps currently streaming (the
// health op's sweeps_active field).
func (s *Server) SweepsActive() int { return int(s.sweepsActive.Load()) }

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// Serve accepts connections on l until Stop is called. It returns nil
// after a clean shutdown and the accept error otherwise. Multiple
// Serve calls on different listeners may run concurrently.
func (s *Server) Serve(l net.Listener) error {
	s.lisMu.Lock()
	s.listeners[l] = struct{}{}
	s.lisMu.Unlock()
	defer func() {
		s.lisMu.Lock()
		delete(s.listeners, l)
		s.lisMu.Unlock()
	}()
	for {
		conn, err := l.Accept()
		if err != nil {
			select {
			case <-s.quit:
				return nil
			default:
				return err
			}
		}
		s.connMu.Lock()
		if s.opts.MaxConns > 0 && len(s.conns) >= s.opts.MaxConns {
			s.connMu.Unlock()
			s.counters.ConnShed.Add(1)
			// Refuse off the accept loop: the refused client may be
			// slow to drain even one frame.
			s.wg.Add(1)
			go s.refuseConn(conn)
			continue
		}
		s.conns[conn] = struct{}{}
		s.connMu.Unlock()
		s.wg.Add(1)
		go s.handleConn(conn)
	}
}

// refuseConn tells a connection over the limit why it is being dropped:
// one overloaded error frame (with an empty id — no request was read),
// then close. The frame is always JSON — the refusal happens before any
// negotiation byte is read, and a binary client is specified to parse a
// JSON line in place of the preamble echo as exactly this refusal
// (docs/SERVICE.md "Negotiation").
func (s *Server) refuseConn(conn net.Conn) {
	defer s.wg.Done()
	defer conn.Close()
	conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
	buf, err := json.Marshal(errResponse("", CodeOverloaded,
		fmt.Sprintf("connection limit %d reached; retry with backoff", s.opts.MaxConns)))
	if err != nil {
		return
	}
	conn.Write(append(buf, '\n'))
}

// Stop shuts the server down gracefully: no new connections are
// accepted, each connection finishes the request it is currently
// serving (including writing the response) and then closes, and Stop
// returns once every connection goroutine has exited. Streaming sweeps
// notice the shutdown at their next chunk boundary and abandon the
// stream (their connection is closing with them).
func (s *Server) Stop() {
	s.stopOnce.Do(func() {
		close(s.quit)
		s.lisMu.Lock()
		for l := range s.listeners {
			l.Close()
		}
		s.lisMu.Unlock()
		// Unblock connections idle in Read with an explicit half-close:
		// CloseRead makes the pending (and every future) Read return
		// EOF while the write side stays open, so a handler mid-request
		// still writes its response in full before its loop observes
		// quit. Conn types without CloseRead (not the unix/tcp
		// listeners we create, but embedders can pass anything) fall
		// back to an already-expired read deadline.
		s.connMu.Lock()
		for c := range s.conns {
			if cr, ok := c.(interface{ CloseRead() error }); ok {
				cr.CloseRead()
			} else {
				c.SetReadDeadline(time.Now())
			}
		}
		s.connMu.Unlock()
	})
	s.wg.Wait()
	s.logf("jfserve: stopped (%d requests served)", s.requests.Load())
}

// errConnDead is returned by connWriter once a write has failed; the
// connection is closing and later writes are pointless.
var errConnDead = errors.New("serve: connection writer is dead")

// connWriter serializes every response write on one connection: the
// request loop and any streaming-sweep goroutines all write through it,
// so frames never interleave mid-frame. It owns the write deadline, the
// codec (JSON line vs binary frame) and the io-timeout accounting; the
// first failed write marks it dead and fails everything after.
type connWriter struct {
	s    *Server
	conn net.Conn
	bin  bool

	mu      sync.Mutex
	w       *bufio.Writer
	enc     *json.Encoder
	scratch []byte
	dead    bool
}

// write encodes and flushes one response in the connection's codec.
func (cw *connWriter) write(resp *Response) error {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	if cw.dead {
		return errConnDead
	}
	if cw.s.opts.WriteTimeout > 0 {
		cw.conn.SetWriteDeadline(time.Now().Add(cw.s.opts.WriteTimeout))
	}
	var err error
	if cw.bin {
		var payload []byte
		if payload, err = AppendBinaryResponse(cw.scratch[:0], resp); err == nil {
			cw.scratch = payload
			err = cw.writeFrameLocked(payload)
		}
	} else {
		err = cw.enc.Encode(resp)
	}
	return cw.finishLocked(err)
}

// writeRaw flushes one pre-encoded binary response payload. The
// payload's buffer becomes the writer's scratch afterwards, so a fast
// path that built it out of takeScratch keeps reusing one allocation.
func (cw *connWriter) writeRaw(payload []byte) error {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	cw.scratch = payload[:0]
	if cw.dead {
		return errConnDead
	}
	if cw.s.opts.WriteTimeout > 0 {
		cw.conn.SetWriteDeadline(time.Now().Add(cw.s.opts.WriteTimeout))
	}
	return cw.finishLocked(cw.writeFrameLocked(payload))
}

func (cw *connWriter) writeFrameLocked(payload []byte) error {
	hdr := le.AppendUint32(cw.w.AvailableBuffer(), uint32(len(payload)))
	if _, err := cw.w.Write(hdr); err != nil {
		return err
	}
	_, err := cw.w.Write(payload)
	return err
}

// writePreamble echoes the binary preamble (negotiation ack).
func (cw *connWriter) writePreamble() error {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	if cw.s.opts.WriteTimeout > 0 {
		cw.conn.SetWriteDeadline(time.Now().Add(cw.s.opts.WriteTimeout))
	}
	_, err := cw.w.Write(BinaryPreamble[:])
	return cw.finishLocked(err)
}

func (cw *connWriter) finishLocked(err error) error {
	if err == nil {
		err = cw.w.Flush()
	}
	if err != nil {
		if isTimeout(err) {
			cw.s.counters.IOTimeouts.Add(1)
		}
		cw.dead = true
	}
	return err
}

// failed reports whether a write has already failed (used by sweep
// streamers to stop routing for a connection that is gone).
func (cw *connWriter) failed() bool {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	return cw.dead
}

// writeResult writes one op result (pre-encoded fast-path bytes or a
// Response) in the connection's codec.
func (cw *connWriter) writeResult(res *opResult) error {
	if res.raw != nil {
		return cw.writeRaw(res.raw)
	}
	resp := res.resp // a copy, so only this path pays for the encoder's escape
	return cw.write(&resp)
}

// opResult is the outcome of one admitted request.
type opResult struct {
	resp Response
	// raw is a pre-encoded binary response payload (the routes-batch
	// fast path); when set, resp is ignored.
	raw []byte
	// poison closes the connection after the response is written (the
	// handler panicked).
	poison bool
	// after runs once the response has been written (a sweep ack
	// starting its streamer); discard runs instead when the response is
	// dropped (write failure, handler timeout), releasing what after
	// would have consumed.
	after   func()
	discard func()
}

// handleConn serves one connection. The first byte picks the codec: a
// NUL byte can only open the binary preamble (no JSON line starts with
// it), anything else is the JSON line protocol. Either way requests are
// answered in order under the configured read/write deadlines, and a
// request whose handler panics poisons only this connection: the error
// frame is written, then the connection closes.
func (s *Server) handleConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.connMu.Lock()
		delete(s.conns, conn)
		s.connMu.Unlock()
	}()

	br := bufio.NewReaderSize(conn, 64<<10)
	cw := &connWriter{s: s, conn: conn, w: bufio.NewWriterSize(conn, 64<<10)}
	cw.enc = json.NewEncoder(cw.w)

	if s.opts.ReadTimeout > 0 {
		conn.SetReadDeadline(time.Now().Add(s.opts.ReadTimeout))
	}
	first, err := br.Peek(1)
	if err != nil {
		if isTimeout(err) && !s.stopping() {
			s.counters.IOTimeouts.Add(1)
		}
		return
	}
	if first[0] == BinaryPreamble[0] {
		s.serveBinary(conn, br, cw)
		return
	}
	s.serveJSON(conn, br, cw)
}

// serveJSON runs the newline-delimited JSON v1 loop.
func (s *Server) serveJSON(conn net.Conn, br *bufio.Reader, cw *connWriter) {
	sc := bufio.NewScanner(br)
	sc.Buffer(make([]byte, 64<<10), MaxFrameBytes)
	// Unlike bufio.ScanLines, never deliver an unterminated final frame:
	// a read error (EOF, deadline expiry) mid-frame means the frame never
	// arrived, not that a truncated one did — parsing the fragment would
	// answer bad-json to a peer that sent no complete request.
	sc.Split(scanCompleteLines)
	for {
		select {
		case <-s.quit:
			return
		default:
		}
		if s.opts.ReadTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.opts.ReadTimeout))
		}
		if !sc.Scan() {
			err := sc.Err()
			switch {
			case errors.Is(err, bufio.ErrTooLong):
				// The frame boundary is lost; report and drop the
				// connection rather than misparse the stream.
				cw.write(respOf(errResponse("", CodeFrameTooLarge,
					fmt.Sprintf("request exceeds %d bytes", MaxFrameBytes))))
			case isTimeout(err) && !s.stopping():
				// The frame did not complete within ReadTimeout — an
				// idle, stalled or slow-loris sender. Close silently:
				// a mid-frame peer cannot re-sync on an error frame.
				s.counters.IOTimeouts.Add(1)
			}
			return
		}
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		res := s.handleFrame(line, cw)
		if !s.finishResult(cw, &res) {
			return
		}
	}
}

// serveBinary validates the client preamble, echoes it, then runs the
// length-prefixed binary v2 loop.
func (s *Server) serveBinary(conn net.Conn, br *bufio.Reader, cw *connWriter) {
	cw.bin = true
	var pre [5]byte
	if _, err := io.ReadFull(br, pre[:]); err != nil {
		if isTimeout(err) && !s.stopping() {
			s.counters.IOTimeouts.Add(1)
		}
		return
	}
	if pre[1] != BinaryPreamble[1] || pre[2] != BinaryPreamble[2] || pre[3] != BinaryPreamble[3] {
		cw.write(respOf(errResponse("", CodeBadRequest,
			"malformed binary preamble; expected NUL + \"JFB\" + version")))
		return
	}
	if pre[4] != BinaryVersion {
		cw.write(respOf(errResponse("", CodeBadVersion,
			fmt.Sprintf("binary protocol version %d, server speaks %d", pre[4], BinaryVersion))))
		return
	}
	if cw.writePreamble() != nil {
		return
	}
	var frame []byte
	for {
		select {
		case <-s.quit:
			return
		default:
		}
		if s.opts.ReadTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.opts.ReadTimeout))
		}
		payload, err := ReadFrame(br, &frame)
		if err != nil {
			switch {
			case errors.Is(err, ErrFrameTooLarge):
				cw.write(respOf(errResponse("", CodeFrameTooLarge,
					fmt.Sprintf("frame exceeds %d bytes", MaxFrameBytes))))
			case errors.Is(err, errZeroFrame):
				// A zero length prefix carries no request and leaves
				// nothing to resync on; mirror the frame-boundary-lost
				// policy and drop the connection.
				cw.write(respOf(errResponse("", CodeBadRequest, "zero-length frame")))
			case isTimeout(err) && !s.stopping():
				s.counters.IOTimeouts.Add(1)
			}
			return
		}
		res := s.handleFrame(payload, cw)
		if !s.finishResult(cw, &res) {
			return
		}
	}
}

// finishResult writes one result and runs its completion hook; false
// means the connection must close.
func (s *Server) finishResult(cw *connWriter, res *opResult) bool {
	if err := cw.writeResult(res); err != nil {
		if res.discard != nil {
			res.discard()
		}
		return false
	}
	if res.after != nil {
		res.after()
	}
	return !res.poison
}

// scanCompleteLines is bufio.ScanLines minus the final-token rule: data
// not terminated by '\n' when the reader errors out is dropped, not
// delivered.
func scanCompleteLines(data []byte, atEOF bool) (advance int, token []byte, err error) {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		return i + 1, bytes.TrimSuffix(data[:i], []byte{'\r'}), nil
	}
	if atEOF {
		return len(data), nil, nil // discard the fragment
	}
	return 0, nil, nil
}

// isTimeout reports whether err is a network deadline expiry.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// stopping reports whether Stop has begun.
func (s *Server) stopping() bool {
	select {
	case <-s.quit:
		return true
	default:
	}
	return false
}

// respOf wraps a Response as an opResult (and as a *Response for
// connWriter.write call sites).
func respOf(resp Response) *Response { return &resp }

func result(resp Response) opResult { return opResult{resp: resp} }

// handleFrame decodes, admits, dispatches and times one request frame
// in the connection's codec.
func (s *Server) handleFrame(frame []byte, cw *connWriter) opResult {
	t0 := time.Now()
	var res opResult
	if cw.bin {
		res = s.admitBinary(frame, cw)
	} else {
		res = s.admitJSON(frame, cw)
	}
	s.requests.Add(1)
	s.latency.Observe(time.Since(t0).Microseconds())
	return res
}

// admitJSON parses the JSON envelope and checks the version, then runs
// the codec-independent admission path.
func (s *Server) admitJSON(line []byte, cw *connWriter) opResult {
	var req Request
	if err := json.Unmarshal(line, &req); err != nil {
		return result(errResponse("", CodeBadJSON, err.Error()))
	}
	if req.V != ProtocolVersion {
		return result(errResponse(req.ID, CodeBadVersion,
			fmt.Sprintf("request version %d, server speaks %d", req.V, ProtocolVersion)))
	}
	return s.admit(call{req: req}, cw)
}

// admitBinary decodes one binary payload and runs the same admission
// path (the binary protocol's version was negotiated in the preamble,
// so there is no per-request version check). A well-framed payload that
// does not decode answers bad-request and the connection stays open.
// A routes-batch is decoded in place (decodeBatchCall) rather than into
// a Request, so batched lookups stay allocation-free.
func (s *Server) admitBinary(payload []byte, cw *connWriter) opResult {
	var c call
	var err error
	if len(payload) > 9 && payload[8] == binOpBatch {
		c, err = decodeBatchCall(payload)
	} else {
		c.id, c.req, err = DecodeBinaryRequest(payload)
	}
	if err != nil {
		return result(errResponse(binFormatID(c.id), CodeBadRequest,
			"malformed binary request: "+err.Error()))
	}
	return s.admit(c, cw)
}

// call is one decoded request as admission sees it, whatever the codec.
// A binary routes-batch (fast) carries only its op in req: its topology
// key and pairs stay a view into the frame payload, so the fast path
// routes straight off the wire bytes without materializing a Request.
type call struct {
	req  Request
	op   *serverOp // set by admit; nil when this server has no such op
	id   uint64    // binary frame id (0 for JSON)
	fast bool
	topo []byte // fast: topology key bytes
	n    int    // fast: pair count
	body []byte // fast: n × (u32 src, u32 dst)
}

// errID is the id an error frame for this call echoes. The fast path
// renders it only when an error needs it.
func (c *call) errID() string {
	if c.fast {
		return binFormatID(c.id)
	}
	return c.req.ID
}

// decodeBatchCall views a binary routes-batch payload in place: the
// layout and errors of DecodeBinaryRequest's routes-batch decoder, read
// through the same binReader, but the topology key and pairs are left
// as views into the payload. The batch-size limits are the handler's
// call, exactly as on the generic path.
func decodeBatchCall(payload []byte) (call, error) {
	r := binReader{b: payload}
	c := call{req: Request{Op: OpRoutesBatch}, id: r.u64(), fast: true}
	r.u8() // the opcode
	c.topo = r.strView()
	c.n = int(r.u32())
	c.body = r.view(8 * c.n)
	return c, r.finish()
}

// admit applies the resilience policy — per-op count, health bypass,
// load shedding, handler timeout, panic recovery — around the op
// dispatch, identically for both codecs and the binary batch fast path.
func (s *Server) admit(c call, cw *connWriter) opResult {
	if c.op = s.ops[c.req.Op]; c.op != nil {
		c.op.requests.Add(1)
	}
	// health must answer while the server is overloaded, so it is
	// exempt from the in-flight limit and the handler timeout. It only
	// reads atomics — cheap enough to never need shedding.
	if c.req.Op == OpHealth {
		return result(s.handleHealth(c.req))
	}
	if s.inflight != nil {
		select {
		case s.inflight <- struct{}{}:
		default:
			s.counters.Shed.Add(1)
			return result(errResponse(c.errID(), CodeOverloaded,
				fmt.Sprintf("in-flight limit %d reached; retry with backoff", s.opts.MaxInFlight)))
		}
	}
	if s.opts.HandlerTimeout <= 0 {
		// No timeout: run inline, keeping the hot path goroutine-free.
		return s.runOp(c, cw)
	}
	return s.runWithTimeout(c, cw)
}

// runWithTimeout runs one admitted op on its own goroutine and answers
// the timeout code if it outlives HandlerTimeout. Kept out of admit so
// that only timed requests pay for moving the call to the heap.
func (s *Server) runWithTimeout(c call, cw *connWriter) opResult {
	if c.fast {
		// The handler may outlive this frame, and the connection reads
		// the next frame into the same buffer.
		c.topo, c.body = bytes.Clone(c.topo), bytes.Clone(c.body)
	}
	done := make(chan opResult, 1)
	go func() {
		done <- s.runOp(c, cw)
	}()
	timer := time.NewTimer(s.opts.HandlerTimeout)
	defer timer.Stop()
	select {
	case r := <-done:
		return r
	case <-timer.C:
		// The handler keeps running detached, holding its in-flight
		// slot until it finishes; its result is dropped — including any
		// completion hook: a timed-out sweep admission never streams,
		// and the drain below releases its sweep slot. A detached panic
		// is still recovered and counted but can no longer poison this
		// connection — the error frame it would ride out on was already
		// replaced by this timeout.
		s.counters.HandlerTimeouts.Add(1)
		go func() {
			if r := <-done; r.discard != nil {
				r.discard()
			}
		}()
		return result(errResponse(c.errID(), CodeTimeout,
			fmt.Sprintf("handler exceeded the %s request timeout", s.opts.HandlerTimeout)))
	}
}

// runOp executes one op with panic recovery, accounting it against the
// in-flight gauge and releasing the in-flight slot (if limits are on)
// when the handler returns. A poisoned result closes the connection.
func (s *Server) runOp(c call, cw *connWriter) (res opResult) {
	s.inflightNow.Add(1)
	defer func() {
		s.inflightNow.Add(-1)
		if s.inflight != nil {
			<-s.inflight
		}
		if r := recover(); r != nil {
			s.counters.Panics.Add(1)
			s.logf("jfserve: recovered panic in %s handler: %v\n%s", c.req.Op, r, debug.Stack())
			res = opResult{resp: errResponse(c.errID(), CodeInternal,
				fmt.Sprintf("handler panicked: %v; closing this connection", r)), poison: true}
		}
	}()
	switch {
	case c.fast:
		return s.binaryBatch(&c, cw)
	case c.op == nil:
		return result(errResponse(c.req.ID, CodeUnknownOp, fmt.Sprintf("unknown op %q", c.req.Op)))
	}
	return c.op.run(s, c.req, cw)
}

// binaryBatch is the binary routes-batch handler: it routes straight
// off the request payload and encodes the response in place, so a
// batched lookup allocates nothing per pair. It mirrors
// handleRoutesBatch exactly — same error codes, same response bytes —
// which the differential suite pins.
func (s *Server) binaryBatch(c *call, cw *connWriter) opResult {
	e, code, msg := s.batchTopo(c.n, c.topo)
	if e == nil {
		return result(errResponse(c.errID(), code, msg))
	}
	out := appendU64(cw.takeScratch(), c.id) // echo the id
	out = append(out, binKindBatch)
	routedOff := len(out)
	out = appendU32(out, 0) // routed, patched below
	out = appendU32(out, uint32(c.n))
	routed := 0
	for i := 0; i < c.n; i++ {
		src := int32(le.Uint32(c.body[8*i:]))
		dst := int32(le.Uint32(c.body[8*i+4:]))
		r, code, err := e.route(src, dst)
		if err != nil {
			out = append(out, 0)
			out = appendU16(out, uint16(len(code)))
			out = append(out, code...)
			continue
		}
		out = append(out, 1)
		out = appendU16(out, uint16(len(r.Path)))
		for _, nd := range r.Path {
			out = appendU32(out, uint32(nd))
		}
		out = appendU32(out, uint32(int32(r.Index)))
		routed++
	}
	le.PutUint32(out[routedOff:], uint32(routed))
	s.routeLookups.Add(int64(routed))
	return opResult{raw: out}
}

// takeScratch hands the writer's scratch buffer (empty, capacity
// retained) to the fast path; writeRaw puts the grown buffer back, so
// steady-state batches reuse one allocation. The buffer moves to the
// caller, so a handler left running past its timeout never shares it
// with the next request's.
func (cw *connWriter) takeScratch() []byte {
	cw.mu.Lock()
	b := cw.scratch[:0]
	cw.scratch = nil
	cw.mu.Unlock()
	return b
}

func (s *Server) handleHealth(req Request) Response {
	s.connMu.Lock()
	conns := len(s.conns)
	s.connMu.Unlock()
	s.mu.Lock()
	topos := len(s.topos)
	s.mu.Unlock()
	c := s.counters.Snapshot()
	resp := okResponse(req.ID)
	resp.Health = &HealthResult{
		Ready:           !s.stopping(),
		UptimeSeconds:   time.Since(s.start).Seconds(),
		Topos:           topos,
		Conns:           conns,
		MaxConns:        s.opts.MaxConns,
		InFlight:        int(s.inflightNow.Load()),
		MaxInFlight:     s.opts.MaxInFlight,
		Shed:            c.Shed,
		ConnShed:        c.ConnShed,
		Panics:          c.Panics,
		HandlerTimeouts: c.HandlerTimeouts,
		IOTimeouts:      c.IOTimeouts,
		SweepsActive:    int(s.sweepsActive.Load()),
		MaxSweeps:       s.opts.MaxSweeps,
	}
	return resp
}

// entry resolves the request's topology key.
func (s *Server) entry(key string) (*topoEntry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.topos[key]
	return e, ok
}

// lookupCode maps a paths.DB lookup error to its protocol error code.
func lookupCode(err error) string {
	switch {
	case errors.Is(err, paths.ErrSelfPair), errors.Is(err, paths.ErrOutOfRange):
		return CodeBadPair
	case errors.Is(err, paths.ErrNotStored):
		return CodePairNotFound
	case errors.Is(err, paths.ErrNoPath):
		return CodeNoPath
	}
	return CodeBadRequest
}

// route validates and routes a single pair. Its callers count the
// routed pairs into Server.routeLookups, once per request or sweep chunk.
// Choose reads the pair's candidates, the one store search of a routed
// pair; only a pair it could not route is looked up again, to name why.
func (e *topoEntry) route(src, dst int32) (RouteResult, string, error) {
	if n := int32(len(e.owner)); src != dst && uint32(src) < uint32(n) && uint32(dst) < uint32(n) {
		if p, idx := e.choose(src, dst); p != nil {
			return RouteResult{Path: p, Index: idx, Hops: p.Hops()}, "", nil
		}
	}
	if _, err := e.db.Lookup(src, dst); err != nil {
		return RouteResult{}, lookupCode(err), err
	}
	return RouteResult{}, CodeNoPath, fmt.Errorf("no candidate survives for %d->%d", src, dst)
}

// storedPaths is a topology View's path provider: a pair its DB does not
// hold, which a sampled DB may lack, reads as an empty candidate set that
// Choose answers as unroutable, where DB.Paths would panic under the
// stripe lock. Every mechanism returns on an empty set before it draws
// or counts, so such a Choose leaves the stripe's state as it was.
type storedPaths struct{ db *paths.DB }

func (s storedPaths) Paths(src, dst graph.NodeID) []graph.Path {
	ps, _ := s.db.Lookup(src, dst) // route looks the pair up again for the error's code
	return ps
}

func (s *Server) handleRoute(req Request) Response {
	if req.Src == nil || req.Dst == nil {
		return errResponse(req.ID, CodeBadRequest, "route needs src and dst")
	}
	e, ok := s.entry(req.Topo)
	if !ok {
		return errResponse(req.ID, CodeUnknownTopo, fmt.Sprintf("topology %q not loaded", req.Topo))
	}
	r, code, err := e.route(*req.Src, *req.Dst)
	if err != nil {
		return errResponse(req.ID, code, err.Error())
	}
	s.routeLookups.Add(1)
	resp := okResponse(req.ID)
	resp.Route = &r
	return resp
}

// batchTopo applies the routes-batch rules both batch handlers share —
// a non-empty batch of at most MaxBatchPairs pairs on a loaded topology —
// and resolves the topology, or returns nil and the error code and
// message to answer.
func (s *Server) batchTopo(n int, topo []byte) (*topoEntry, string, string) {
	switch {
	case n == 0:
		return nil, CodeBadRequest, "routes-batch needs a non-empty pairs array"
	case n > MaxBatchPairs:
		return nil, CodeBatchTooLarge, fmt.Sprintf("%d pairs exceed the %d-pair batch limit", n, MaxBatchPairs)
	}
	s.mu.Lock()
	e, ok := s.topos[string(topo)] // keys the lookup without allocating
	s.mu.Unlock()
	if !ok {
		return nil, CodeUnknownTopo, fmt.Sprintf("topology %q not loaded", string(topo))
	}
	return e, "", ""
}

func (s *Server) handleRoutesBatch(req Request) Response {
	e, code, msg := s.batchTopo(len(req.Pairs), []byte(req.Topo))
	if e == nil {
		return errResponse(req.ID, code, msg)
	}
	out := BatchResult{Entries: make([]BatchEntry, len(req.Pairs))}
	routes := make([]RouteResult, len(req.Pairs))
	for i, pr := range req.Pairs {
		r, code, err := e.route(pr[0], pr[1])
		if err != nil {
			out.Entries[i] = BatchEntry{Err: code}
			continue
		}
		routes[out.Routed] = r
		out.Entries[i] = BatchEntry{Route: &routes[out.Routed]}
		out.Routed++
	}
	s.routeLookups.Add(int64(out.Routed))
	resp := okResponse(req.ID)
	resp.Batch = &out
	return resp
}

// handleSweep admits one sweep: validates it, claims a sweep slot and
// acknowledges with the chunking plan. The streamer itself starts from
// the result's after hook — only once the ack frame is on the wire, so
// chunk frames can never precede it.
func (s *Server) handleSweep(req Request, cw *connWriter) opResult {
	sp := req.Sweep
	if sp == nil {
		return result(errResponse(req.ID, CodeBadRequest, "sweep needs sweep params"))
	}
	chunk := sp.Chunk
	if chunk == 0 {
		chunk = DefaultSweepChunk
	}
	if chunk < 1 || chunk > MaxBatchPairs {
		return result(errResponse(req.ID, CodeBadRequest,
			fmt.Sprintf("sweep chunk must be 1..%d", MaxBatchPairs)))
	}
	var total int
	switch {
	case sp.Count > 0 && len(sp.Pairs) > 0:
		return result(errResponse(req.ID, CodeBadRequest, "sweep takes count or pairs, not both"))
	case sp.Count > 0:
		if sp.Count > MaxSweepPairs {
			return result(errResponse(req.ID, CodeBadRequest,
				fmt.Sprintf("%d pairs exceed the %d-pair sweep limit", sp.Count, MaxSweepPairs)))
		}
		total = sp.Count
	case len(sp.Pairs) > 0:
		if len(sp.Pairs) > MaxSweepPairs {
			return result(errResponse(req.ID, CodeBadRequest,
				fmt.Sprintf("%d pairs exceed the %d-pair sweep limit", len(sp.Pairs), MaxSweepPairs)))
		}
		total = len(sp.Pairs)
	default:
		return result(errResponse(req.ID, CodeBadRequest, "sweep needs count or pairs"))
	}
	e, ok := s.entry(req.Topo)
	if !ok {
		return result(errResponse(req.ID, CodeUnknownTopo, fmt.Sprintf("topology %q not loaded", req.Topo)))
	}
	if sp.Count > 0 && e.topo.N < 2 {
		return result(errResponse(req.ID, CodeBadRequest,
			"generated sweep pairs need a topology with at least 2 switches"))
	}
	if s.sweepSem != nil {
		select {
		case s.sweepSem <- struct{}{}:
		default:
			s.counters.Shed.Add(1)
			return result(errResponse(req.ID, CodeOverloaded,
				fmt.Sprintf("sweep limit %d reached; retry with backoff", s.opts.MaxSweeps)))
		}
	}
	s.sweepsActive.Add(1)
	release := func() {
		s.sweepsActive.Add(-1)
		if s.sweepSem != nil {
			<-s.sweepSem
		}
	}
	chunks := (total + chunk - 1) / chunk
	resp := okResponse(req.ID)
	resp.Sweep = &SweepStart{TotalPairs: total, ChunkSize: chunk, Chunks: chunks}
	id, params := req.ID, *sp
	return opResult{
		resp: resp,
		after: func() {
			s.wg.Add(1)
			go s.runSweep(e, cw, id, params, chunk, total, release)
		},
		discard: release,
	}
}

// runSweep streams one sweep's chunk frames through the connection
// writer, interleaving with the request loop's responses. It stops
// early — abandoning the stream, no SweepDone — when the server is
// stopping or the connection's writer has died; either way the
// connection is going down with it.
func (s *Server) runSweep(e *topoEntry, cw *connWriter, id string, sp SweepParams, chunk, total int, release func()) {
	defer s.wg.Done()
	defer release()
	var rng *xrand.RNG
	if sp.Count > 0 {
		// The generated pair stream is seeded server-side, so the same
		// (seed, count) sweep routes the same pairs on every run and
		// over either codec.
		rng = xrand.NewPair(sp.Seed, 0x73777065) // "swpe"
	}
	nodes := e.topo.N
	// Entries and routes are reused across chunks: the writer encodes
	// synchronously, so nothing references them once write returns.
	entries := make([]BatchEntry, chunk)
	routes := make([]RouteResult, chunk)
	var seq int
	var routed, failed int64
	for off := 0; off < total; off += chunk {
		if s.stopping() || cw.failed() {
			return
		}
		n := chunk
		if total-off < n {
			n = total - off
		}
		chunkRouted, nr := 0, 0
		for i := 0; i < n; i++ {
			var src, dst int32
			if rng != nil {
				src = int32(rng.IntN(nodes))
				dst = int32(rng.IntNExcept(nodes, int(src)))
			} else {
				pr := sp.Pairs[off+i]
				src, dst = pr[0], pr[1]
			}
			r, code, err := e.route(src, dst)
			if err != nil {
				entries[i] = BatchEntry{Err: code}
				failed++
				continue
			}
			routes[nr] = r
			entries[i] = BatchEntry{Route: &routes[nr]}
			nr++
			chunkRouted++
			routed++
		}
		s.routeLookups.Add(int64(chunkRouted))
		resp := okResponse(id)
		resp.SweepChunk = &SweepChunk{Seq: seq, Routed: chunkRouted, Entries: entries[:n]}
		if cw.write(&resp) != nil {
			return
		}
		seq++
	}
	resp := okResponse(id)
	resp.SweepDone = &SweepDone{Chunks: seq, Routed: routed, Failed: failed}
	cw.write(&resp)
}

func (s *Server) handleEstimate(req Request) Response {
	if req.Src == nil || req.Dst == nil {
		return errResponse(req.ID, CodeBadRequest, "estimate needs src and dst")
	}
	e, ok := s.entry(req.Topo)
	if !ok {
		return errResponse(req.ID, CodeUnknownTopo, fmt.Sprintf("topology %q not loaded", req.Topo))
	}
	ps, err := e.db.Lookup(*req.Src, *req.Dst)
	if err != nil {
		return errResponse(req.ID, lookupCode(err), err.Error())
	}
	resp := okResponse(req.ID)
	est := estimatePair(ps)
	resp.Estimate = &est
	return resp
}

// estimatePair computes the pair's path-set quality and the
// isolated-flow Equation-1 throughput: the pair's k sub-flows load each
// link they cross (injection/ejection load k by construction, so a
// fully link-disjoint set scores exactly 1.0), each sub-flow moves at
// the reciprocal of its path's maximum load, and the flow's throughput
// is the sum — the model of internal/model restricted to one flow.
func estimatePair(ps []graph.Path) EstimateResult {
	res := EstimateResult{Candidates: len(ps), MaxShare: paths.MaxShare(ps)}
	counts := make(map[uint64]int, 8*len(ps))
	totHops := 0
	for _, p := range ps {
		if h := p.Hops(); res.MinHops == 0 || h < res.MinHops {
			res.MinHops = h
		}
		totHops += p.Hops()
		for i := 0; i+1 < len(p); i++ {
			counts[graph.PairKey(p[i], p[i+1])]++
		}
	}
	if len(ps) > 0 {
		res.AvgHops = float64(totHops) / float64(len(ps))
	}
	k := len(ps)
	for _, p := range ps {
		maxLoad := k // the shared injection/ejection links
		for i := 0; i+1 < len(p); i++ {
			if c := counts[graph.PairKey(p[i], p[i+1])]; c > maxLoad {
				maxLoad = c
			}
		}
		res.Throughput += 1 / float64(maxLoad)
	}
	return res
}

// TopoKey renders the identity of one loaded topology:
// "<graph fingerprint>|<selector canonical form>|<seed>". The same
// triple keys the on-disk path cache, so one key always denotes one
// exact path DB.
func TopoKey(g *graph.Graph, cfg ksp.Config, seed uint64) string {
	return fmt.Sprintf("%016x|%s|%d", g.Fingerprint(), cfg.Canonical(), seed)
}

func (s *Server) handleTopoLoad(req Request) Response {
	if req.Params == nil {
		return errResponse(req.ID, CodeBadRequest, "topo-load needs params")
	}
	res, err := s.LoadTopology(*req.Params)
	if err != nil {
		code := CodeTopoLoad
		var badParam *paramError
		if errors.As(err, &badParam) {
			code = CodeBadRequest
		}
		return errResponse(req.ID, code, err.Error())
	}
	resp := okResponse(req.ID)
	resp.Topo = &res
	return resp
}

// paramError marks a topo-load failure caused by the request itself.
type paramError struct{ err error }

func (e *paramError) Error() string { return e.err.Error() }
func (e *paramError) Unwrap() error { return e.err }

// LoadTopology builds (or cache-loads) the path DB described by p and
// makes it resident. It is what topo-load calls; cmd/jfserve also calls
// it directly for -preload. Loading an already resident key is
// idempotent: the existing DB is kept.
func (s *Server) LoadTopology(p TopoParams) (TopoResult, error) {
	if p.Selector == "" {
		p.Selector = "rEDKSP"
	}
	if p.K < 0 || p.K > routing.MaxK {
		return TopoResult{}, &paramError{fmt.Errorf("k must be 0 to %d (0 selects 8), got %d", routing.MaxK, p.K)}
	}
	if p.K == 0 {
		p.K = 8
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.Mechanism == "" {
		p.Mechanism = "ksp-adaptive"
	}
	if p.Estimator == "" {
		p.Estimator = "link-load"
	}
	if p.PairSample < 0 {
		return TopoResult{}, &paramError{fmt.Errorf("pair_sample must be non-negative, got %d", p.PairSample)}
	}
	if p.TopoSample < 0 {
		return TopoResult{}, &paramError{fmt.Errorf("topo_sample must be non-negative, got %d", p.TopoSample)}
	}

	var params jellyfish.Params
	if p.Topo != "" {
		var err error
		if params, err = jellyfish.ByName(p.Topo); err != nil {
			return TopoResult{}, &paramError{err}
		}
	} else {
		params = jellyfish.Params{N: p.N, X: p.X, Y: p.Y}
		if err := params.Validate(); err != nil {
			return TopoResult{}, &paramError{err}
		}
	}
	alg, err := ksp.ByName(p.Selector)
	if err != nil {
		return TopoResult{}, &paramError{err}
	}
	mech, err := routing.ByName(p.Mechanism)
	if err != nil {
		return TopoResult{}, &paramError{err}
	}
	// A detour leg runs between the source or destination and a random
	// intermediate switch, a pair a sample need not hold.
	if p.PairSample > 0 && mech.NonMinimal() {
		return TopoResult{}, &paramError{fmt.Errorf("mechanism %s routes detours over pairs outside a pair_sample; load all pairs (pair_sample 0)", mech.Name())}
	}
	if _, err := routing.EstimatorByName(p.Estimator); err != nil {
		return TopoResult{}, &paramError{err}
	}

	// The experiment-seed derivation (internal/seeds): same -seed, same
	// sample index → bit-identical graph and path DB as the binaries.
	topo, err := jellyfish.New(params, seeds.TopoRNG(p.Seed, p.TopoSample))
	if err != nil {
		return TopoResult{}, err
	}
	cfg := ksp.Config{Alg: alg, K: p.K}
	pathSeed := seeds.PathSeed(p.Seed, p.TopoSample, alg)
	key := TopoKey(topo.G, cfg, pathSeed)

	s.mu.Lock()
	if e, ok := s.topos[key]; ok {
		s.mu.Unlock()
		return TopoResult{Key: key, AlreadyLoaded: true, Switches: params.N,
			Terminals: topo.NumTerminals(), Pairs: e.db.NumPairs(), K: e.db.K()}, nil
	}
	s.mu.Unlock()

	var prs []paths.Pair
	if p.PairSample > 0 {
		prs = paths.SamplePairs(params.N, p.PairSample, xrand.NewPair(pathSeed, 0x706172)) // "par"
	} else {
		prs = paths.AllOrderedPairs(params.N)
	}
	t0 := time.Now()
	db, cacheStats, err := paths.LoadOrBuild(s.opts.PathCache, topo.G, cfg, pathSeed, prs, s.opts.Workers)
	if err != nil {
		return TopoResult{}, err
	}
	loadSec := time.Since(t0).Seconds()

	// The View is shared by every stripe and prewarmed so Choose calls
	// only ever read it; all mutable routing state is per-stripe, each
	// stripe with its own independently seeded RNG stream and its own
	// estimator instance.
	view := &routing.View{Provider: storedPaths{db}, NumNodes: params.N}
	view.Prewarm()
	nstripes := s.opts.Stripes
	if nstripes <= 0 {
		nstripes = runtime.GOMAXPROCS(0)
	}
	owner := make([]int32, params.N)
	for n := range owner {
		owner[n] = int32(xrand.Mix64(uint64(n)) % uint64(nstripes))
	}
	stripes := make([]stripe, nstripes)
	for i := range stripes {
		est, err := routing.EstimatorByName(p.Estimator)
		if err != nil {
			return TopoResult{}, &paramError{err}
		}
		ll, _ := est.(*routing.LinkLoadEstimator)
		stripes[i] = stripe{
			state: mech.NewState(),
			est:   est,
			ll:    ll,
			rng:   seeds.StripeRNG(pathSeed, topo.G.Fingerprint(), i),
		}
	}
	e := &topoEntry{
		key:      key,
		topo:     topo,
		db:       db,
		view:     view,
		mechName: mech.Name(),
		estName:  p.Estimator,
		stripes:  stripes,
		owner:    owner,
	}
	s.mu.Lock()
	if prev, ok := s.topos[key]; ok {
		// A concurrent load won the race; keep its state.
		s.mu.Unlock()
		return TopoResult{Key: key, AlreadyLoaded: true, Switches: params.N,
			Terminals: topo.NumTerminals(), Pairs: prev.db.NumPairs(), K: prev.db.K()}, nil
	}
	s.topos[key] = e
	s.mu.Unlock()
	s.logf("jfserve: loaded %s as %s (%d pairs, %d stripes, cache hit %v, %.2fs)",
		params, key, db.NumPairs(), nstripes, cacheStats.Hit, loadSec)
	return TopoResult{Key: key, Switches: params.N, Terminals: topo.NumTerminals(),
		Pairs: db.NumPairs(), K: p.K, CacheHit: cacheStats.Hit, LoadSeconds: loadSec}, nil
}

func (s *Server) handleTopoEvict(req Request) Response {
	if req.Topo == "" {
		return errResponse(req.ID, CodeBadRequest, "topo-evict needs topo")
	}
	s.mu.Lock()
	_, ok := s.topos[req.Topo]
	delete(s.topos, req.Topo)
	s.mu.Unlock()
	if !ok {
		return errResponse(req.ID, CodeUnknownTopo, fmt.Sprintf("topology %q not loaded", req.Topo))
	}
	s.logf("jfserve: evicted %s", req.Topo)
	return okResponse(req.ID)
}

func (s *Server) handleStats(req Request) Response {
	uptime := time.Since(s.start).Seconds()
	st := StatsResult{
		UptimeSeconds: uptime,
		Requests:      s.requests.Load(),
		RouteLookups:  s.routeLookups.Load(),
		PerOp:         make(map[string]int64, len(s.ops)),
		Latency:       latencySummaryOf(s.latency.Summarize()),
	}
	if uptime > 0 {
		st.QPS = float64(st.Requests) / uptime
	}
	for name, op := range s.ops {
		st.PerOp[name] = op.requests.Load()
	}
	s.mu.Lock()
	for _, e := range s.topos {
		st.Topos = append(st.Topos, TopoInfo{
			Key: e.key, Switches: e.topo.N, Pairs: e.db.NumPairs(), K: e.db.K(),
			Mechanism: e.mechName, Estimator: e.estName,
		})
	}
	s.mu.Unlock()
	sort.Slice(st.Topos, func(i, j int) bool { return st.Topos[i].Key < st.Topos[j].Key })
	resp := okResponse(req.ID)
	resp.Stats = &st
	return resp
}
