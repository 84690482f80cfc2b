package serve_test

import (
	"bufio"
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/client"
)

// -update rewrites the golden v2 wire fixtures under testdata/v2. The
// committed bytes pin the wire format: an encoder change that alters
// them is a protocol break and must bump BinaryVersion instead.
var updateGolden = flag.Bool("update", false, "rewrite golden binary fixtures")

func dialBin(t *testing.T) *client.Client {
	t.Helper()
	c, err := client.DialBinary(bg, "unix", testSock)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// rawBinConn dials, completes the preamble handshake by hand, and
// returns the connection with a reader positioned after the echo.
func rawBinConn(t *testing.T) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("unix", testSock)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	br := bufio.NewReader(conn)
	if _, err := conn.Write(serve.BinaryPreamble[:]); err != nil {
		t.Fatal(err)
	}
	var echo [5]byte
	if _, err := io.ReadFull(br, echo[:]); err != nil {
		t.Fatalf("no preamble echo: %v", err)
	}
	if echo != serve.BinaryPreamble {
		t.Fatalf("preamble echo % x, want % x", echo, serve.BinaryPreamble)
	}
	return conn, br
}

// binRoundTrip writes one binary request frame and reads one response.
func binRoundTrip(t *testing.T, conn net.Conn, br *bufio.Reader, id uint64, req serve.Request) serve.Response {
	t.Helper()
	payload, err := serve.AppendBinaryRequest(nil, id, &req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(serve.AppendFrame(nil, payload)); err != nil {
		t.Fatal(err)
	}
	return readBinResponse(t, br)
}

func readBinResponse(t *testing.T, br *bufio.Reader) serve.Response {
	t.Helper()
	var buf []byte
	p, err := serve.ReadFrame(br, &buf)
	if err != nil {
		t.Fatalf("reading response frame: %v", err)
	}
	resp, err := serve.DecodeBinaryResponse(p)
	if err != nil {
		t.Fatalf("decoding response frame: %v", err)
	}
	return resp
}

func TestBinaryRouteRoundTrip(t *testing.T) {
	c := dialBin(t)
	r, err := c.Route(bg, testKey, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Path) < 2 || r.Path[0] != 0 || r.Path[len(r.Path)-1] != 1 {
		t.Fatalf("path %v does not connect 0->1", r.Path)
	}
	if r.Hops != len(r.Path)-1 {
		t.Fatalf("hops %d for path of %d nodes", r.Hops, len(r.Path))
	}
}

func TestBinaryBatchRoundTrip(t *testing.T) {
	c := dialBin(t)
	pairs := [][2]int32{{0, 1}, {2, 3}, {5, 5}, {4, 9}}
	br, err := c.RoutesBatch(bg, testKey, pairs)
	if err != nil {
		t.Fatal(err)
	}
	if len(br.Entries) != len(pairs) || br.Routed != 3 {
		t.Fatalf("got %d entries, routed %d; want 4 entries, 3 routed", len(br.Entries), br.Routed)
	}
	if br.Entries[2].Err != serve.CodeBadPair || br.Entries[2].Route != nil {
		t.Fatalf("self-pair entry = %+v, want err %s", br.Entries[2], serve.CodeBadPair)
	}
	for _, e := range []int{0, 1, 3} {
		ent := br.Entries[e]
		if ent.Route == nil {
			t.Fatalf("entry %d: no route (err %s)", e, ent.Err)
		}
		p := ent.Route.Path
		if p[0] != pairs[e][0] || p[len(p)-1] != pairs[e][1] {
			t.Fatalf("entry %d: path %v does not connect %v", e, p, pairs[e])
		}
		if ent.Route.Hops != len(p)-1 {
			t.Fatalf("entry %d: hops %d for %d-node path (reconstructed wrong)", e, ent.Route.Hops, len(p))
		}
	}
}

func TestBinaryErrorCodes(t *testing.T) {
	c := dialBin(t)
	_, err := c.Route(bg, testKey, 3, 3)
	wantCode(t, err, serve.CodeBadPair)
	_, err = c.Route(bg, "no-such-key", 0, 1)
	wantCode(t, err, serve.CodeUnknownTopo)
	_, err = c.RoutesBatch(bg, testKey, nil)
	wantCode(t, err, serve.CodeBadRequest)
	pairs := make([][2]int32, serve.MaxBatchPairs+1)
	for i := range pairs {
		pairs[i] = [2]int32{0, 1}
	}
	_, err = c.RoutesBatch(bg, testKey, pairs)
	wantCode(t, err, serve.CodeBatchTooLarge)
	wantCode(t, c.TopoEvict(bg, "no-such-key"), serve.CodeUnknownTopo)
	// The connection survives every one of those.
	if _, err := c.Health(bg); err != nil {
		t.Fatalf("connection unusable after error responses: %v", err)
	}
}

// TestBinaryNegotiationWrongVersion pins version skew at the preamble:
// a future-version client gets a binary bad-version error frame and the
// connection closes.
func TestBinaryNegotiationWrongVersion(t *testing.T) {
	conn, err := net.Dial("unix", testSock)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	pre := serve.BinaryPreamble
	pre[4] = serve.BinaryVersion + 1
	if _, err := conn.Write(pre[:]); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	resp := readBinResponse(t, br)
	if resp.OK || resp.Error == nil || resp.Error.Code != serve.CodeBadVersion {
		t.Fatalf("got %+v, want %s", resp, serve.CodeBadVersion)
	}
	var one [1]byte
	if _, err := br.Read(one[:]); err != io.EOF {
		t.Fatalf("connection still open after version mismatch (read: %v)", err)
	}
}

// TestBinaryNegotiationGarbage covers a NUL first byte that is not the
// preamble: binary bad-request frame, then close.
func TestBinaryNegotiationGarbage(t *testing.T) {
	conn, err := net.Dial("unix", testSock)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{0x00, 'X', 'Y', 'Z', 0x09}); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	resp := readBinResponse(t, br)
	if resp.OK || resp.Error == nil || resp.Error.Code != serve.CodeBadRequest {
		t.Fatalf("got %+v, want %s", resp, serve.CodeBadRequest)
	}
	var one [1]byte
	if _, err := br.Read(one[:]); err != io.EOF {
		t.Fatalf("connection still open after bad preamble (read: %v)", err)
	}
}

func TestBinaryZeroLengthFrame(t *testing.T) {
	conn, br := rawBinConn(t)
	if _, err := conn.Write([]byte{0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	resp := readBinResponse(t, br)
	if resp.OK || resp.Error == nil || resp.Error.Code != serve.CodeBadRequest {
		t.Fatalf("got %+v, want %s", resp, serve.CodeBadRequest)
	}
	var one [1]byte
	if _, err := br.Read(one[:]); err != io.EOF {
		t.Fatalf("connection still open after zero-length frame (read: %v)", err)
	}
}

func TestBinaryOversizedLengthPrefix(t *testing.T) {
	conn, br := rawBinConn(t)
	var hdr [4]byte
	hdr[0] = 0x01 // MaxFrameBytes+1 little-endian: 0x00100001
	hdr[2] = 0x10
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	resp := readBinResponse(t, br)
	if resp.OK || resp.Error == nil || resp.Error.Code != serve.CodeFrameTooLarge {
		t.Fatalf("got %+v, want %s", resp, serve.CodeFrameTooLarge)
	}
	var one [1]byte
	if _, err := br.Read(one[:]); err != io.EOF {
		t.Fatalf("connection still open after oversized prefix (read: %v)", err)
	}
}

// TestBinaryUnknownOpcode mirrors JSON's unknown-op tolerance: a future
// opcode answers unknown-op and the connection stays open, even with
// trailing field bytes the server cannot parse.
func TestBinaryUnknownOpcode(t *testing.T) {
	conn, br := rawBinConn(t)
	payload := make([]byte, 0, 16)
	payload = append(payload, 7, 0, 0, 0, 0, 0, 0, 0) // id 7
	payload = append(payload, 99)                     // unknown opcode
	payload = append(payload, 0xde, 0xad, 0xbe)       // a newer client's fields
	if _, err := conn.Write(serve.AppendFrame(nil, payload)); err != nil {
		t.Fatal(err)
	}
	resp := readBinResponse(t, br)
	if resp.OK || resp.Error == nil || resp.Error.Code != serve.CodeUnknownOp {
		t.Fatalf("got %+v, want %s", resp, serve.CodeUnknownOp)
	}
	if resp.ID != "7" {
		t.Fatalf("error response dropped the request id: %+v", resp)
	}
	after := binRoundTrip(t, conn, br, 8, serve.Request{Op: serve.OpHealth})
	if !after.OK || after.ID != "8" {
		t.Fatalf("connection unusable after unknown opcode: %+v", after)
	}
}

// TestBinaryMalformedPayload sends a well-framed but truncated payload:
// bad-request, and the connection survives (the frame boundary held).
func TestBinaryMalformedPayload(t *testing.T) {
	conn, br := rawBinConn(t)
	good, err := serve.AppendBinaryRequest(nil, 3, &serve.Request{
		Op: serve.OpRoute, Topo: testKey, Src: ptr(int32(0)), Dst: ptr(int32(1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(serve.AppendFrame(nil, good[:len(good)-2])); err != nil {
		t.Fatal(err)
	}
	resp := readBinResponse(t, br)
	if resp.OK || resp.Error == nil || resp.Error.Code != serve.CodeBadRequest {
		t.Fatalf("got %+v, want %s", resp, serve.CodeBadRequest)
	}
	if resp.ID != "3" {
		t.Fatalf("truncated-payload error dropped the id: %+v", resp)
	}
	after := binRoundTrip(t, conn, br, 4, serve.Request{Op: serve.OpStats})
	if !after.OK {
		t.Fatalf("connection unusable after malformed payload: %+v", after)
	}
}

// TestBinaryRefusalAtConnLimit: the connection-limit refusal frame is
// always JSON (written before the server reads the codec preamble); the
// binary client must surface it as the overloaded RemoteError.
func TestBinaryRefusalAtConnLimit(t *testing.T) {
	_, sock := startServer(t, serve.Options{MaxConns: 1})
	held, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	// The held conn must be registered before the second dial; a JSON
	// probe forces the accept loop to have admitted it.
	sc := bufio.NewScanner(held)
	if _, err := fmt.Fprintln(held, `{"v":1,"op":"health"}`); err != nil {
		t.Fatal(err)
	}
	if !sc.Scan() {
		t.Fatal(sc.Err())
	}
	_, err = client.DialBinary(bg, "unix", sock)
	wantCode(t, err, serve.CodeOverloaded)
}

func ptr[T any](v T) *T { return &v }

// TestBinaryGoldenFixtures pins the exact v2 wire bytes of one
// representative frame per op and response kind, and fails if an op in
// the op table has no request fixture. Run with -update to regenerate
// after an intentional format change (which must also bump
// BinaryVersion and docs/SERVICE.md) or to write a new op's fixture.
func TestBinaryGoldenFixtures(t *testing.T) {
	reqs := []struct {
		name string
		id   uint64
		req  serve.Request
	}{
		{"req-route", 1, serve.Request{Op: serve.OpRoute, Topo: "topo-A", Src: ptr(int32(3)), Dst: ptr(int32(9))}},
		{"req-batch", 2, serve.Request{Op: serve.OpRoutesBatch, Topo: "topo-A", Pairs: [][2]int32{{0, 1}, {7, 4}, {-1, 2}}}},
		{"req-estimate", 3, serve.Request{Op: serve.OpEstimate, Topo: "topo-A", Src: ptr(int32(0)), Dst: ptr(int32(5))}},
		{"req-topo-load", 4, serve.Request{Op: serve.OpTopoLoad, Params: &serve.TopoParams{
			Topo: "small", Selector: "rEDKSP", K: 4, Seed: 11, Mechanism: "ksp-adaptive",
			Estimator: "link-load", PairSample: 20,
		}}},
		{"req-topo-evict", 5, serve.Request{Op: serve.OpTopoEvict, Topo: "topo-A"}},
		{"req-stats", 6, serve.Request{Op: serve.OpStats}},
		{"req-health", 7, serve.Request{Op: serve.OpHealth}},
		{"req-sweep-count", 8, serve.Request{Op: serve.OpSweep, Topo: "topo-A", Sweep: &serve.SweepParams{Count: 1000, Seed: 5, Chunk: 128}}},
		{"req-sweep-pairs", 9, serve.Request{Op: serve.OpSweep, Topo: "topo-A", Sweep: &serve.SweepParams{Pairs: [][2]int32{{1, 2}, {3, 4}}}}},
		{"req-test-sleep", 10, serve.Request{Op: serve.OpTestSleep, SleepMS: 250}},
		{"req-test-crash", 11, serve.Request{Op: serve.OpTestCrash}},
	}
	covered := map[string]bool{}
	for _, tc := range reqs {
		covered[tc.req.Op] = true
	}
	for _, op := range serve.TableOps() {
		if !covered[op.Name] {
			t.Errorf("op %s (opcode %d) has no req- golden fixture", op.Name, op.Code)
		}
	}
	resps := []struct {
		name string
		resp serve.Response
	}{
		{"resp-error", serve.Response{ID: "1", Error: &serve.ErrorInfo{Code: serve.CodeOverloaded, Message: "in-flight limit reached"}}},
		{"resp-ok", serve.Response{ID: "5", OK: true}},
		{"resp-route", serve.Response{ID: "1", OK: true, Route: &serve.RouteResult{Path: []int32{3, 12, 9}, Index: 2, Hops: 2}}},
		{"resp-batch", serve.Response{ID: "2", OK: true, Batch: &serve.BatchResult{Routed: 1, Entries: []serve.BatchEntry{
			{Route: &serve.RouteResult{Path: []int32{0, 1}, Index: 0, Hops: 1}},
			{Err: serve.CodeBadPair},
		}}}},
		{"resp-estimate", serve.Response{ID: "3", OK: true, Estimate: &serve.EstimateResult{
			Candidates: 4, MinHops: 2, AvgHops: 2.5, MaxShare: 2, Throughput: 0.5,
		}}},
		{"resp-topo", serve.Response{ID: "4", OK: true, Topo: &serve.TopoResult{
			Key: "small/rEDKSP/k=4/seed=11/sample=20", AlreadyLoaded: true, CacheHit: false,
			Switches: 20, Terminals: 16, Pairs: 20, K: 4, LoadSeconds: 0.25,
		}}},
		{"resp-health", serve.Response{ID: "7", OK: true, Health: &serve.HealthResult{
			Ready: true, UptimeSeconds: 1.5, Topos: 1, Conns: 2, MaxConns: 64,
			InFlight: 1, MaxInFlight: 8, Shed: 3, ConnShed: 1, Panics: 0,
			HandlerTimeouts: 2, IOTimeouts: 4, SweepsActive: 1, MaxSweeps: 16,
		}}},
		{"resp-sweep-start", serve.Response{ID: "8", OK: true, Sweep: &serve.SweepStart{TotalPairs: 1000, ChunkSize: 128, Chunks: 8}}},
		{"resp-sweep-chunk", serve.Response{ID: "8", OK: true, SweepChunk: &serve.SweepChunk{Seq: 0, Routed: 1, Entries: []serve.BatchEntry{
			{Route: &serve.RouteResult{Path: []int32{1, 2}, Index: -1, Hops: 1}},
		}}}},
		{"resp-sweep-done", serve.Response{ID: "8", OK: true, SweepDone: &serve.SweepDone{Chunks: 8, Routed: 990, Failed: 10}}},
	}

	check := func(t *testing.T, name string, frame []byte) {
		t.Helper()
		path := filepath.Join("testdata", "v2", name+".bin")
		if *updateGolden {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, frame, 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden fixture (run with -update): %v", err)
		}
		if !bytes.Equal(frame, want) {
			t.Fatalf("wire bytes drifted from %s:\n got  % x\n want % x", path, frame, want)
		}
	}

	for _, tc := range reqs {
		t.Run(tc.name, func(t *testing.T) {
			payload, err := serve.AppendBinaryRequest(nil, tc.id, &tc.req)
			if err != nil {
				t.Fatal(err)
			}
			check(t, tc.name, serve.AppendFrame(nil, payload))

			// Every fixture must decode back to what produced it.
			id, got, err := serve.DecodeBinaryRequest(payload)
			if err != nil {
				t.Fatalf("golden request does not decode: %v", err)
			}
			if id != tc.id {
				t.Fatalf("id %d, want %d", id, tc.id)
			}
			want := tc.req
			want.V = serve.ProtocolVersion
			want.ID = fmt.Sprint(tc.id)
			if want.Op == serve.OpTopoLoad && want.Params == nil {
				want.Params = &serve.TopoParams{}
			}
			if want.Op == serve.OpSweep && want.Sweep == nil {
				want.Sweep = &serve.SweepParams{}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("request round trip drifted:\n got  %+v\n want %+v", got, want)
			}
		})
	}
	for _, tc := range resps {
		t.Run(tc.name, func(t *testing.T) {
			payload, err := serve.AppendBinaryResponse(nil, &tc.resp)
			if err != nil {
				t.Fatal(err)
			}
			check(t, tc.name, serve.AppendFrame(nil, payload))

			got, err := serve.DecodeBinaryResponse(payload)
			if err != nil {
				t.Fatalf("golden response does not decode: %v", err)
			}
			want := tc.resp
			want.V = serve.ProtocolVersion
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("response round trip drifted:\n got  %+v\n want %+v", got, want)
			}
		})
	}
}

// TestBinaryConcurrentBatches is the binary twin of the JSON race gate:
// concurrent binary clients hammer routes-batch (and with it the striped
// adaptive choice) under -race.
func TestBinaryConcurrentBatches(t *testing.T) {
	const clients = 8
	const batches = 10
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := client.DialBinary(bg, "unix", testSock)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			pairs := make([][2]int32, 64)
			for b := 0; b < batches; b++ {
				for j := range pairs {
					s := int32((i*37 + b*11 + j) % testSw)
					d := (s + 1 + int32(j%9)) % int32(testSw)
					if d == s {
						d = (d + 1) % int32(testSw)
					}
					pairs[j] = [2]int32{s, d}
				}
				br, err := c.RoutesBatch(bg, testKey, pairs)
				if err != nil {
					errs <- err
					return
				}
				if br.Routed != len(pairs) {
					errs <- fmt.Errorf("client %d: routed %d of %d", i, br.Routed, len(pairs))
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestBinaryJSONInterleaved verifies codec negotiation is genuinely
// per-connection: JSON and binary clients share one server and neither
// corrupts the other's stream.
func TestBinaryJSONInterleaved(t *testing.T) {
	cj := dial(t)
	cb := dialBin(t)
	for i := 0; i < 10; i++ {
		if _, err := cj.Route(bg, testKey, 0, 1); err != nil {
			t.Fatalf("json op %d: %v", i, err)
		}
		if _, err := cb.Route(bg, testKey, 0, 1); err != nil {
			t.Fatalf("binary op %d: %v", i, err)
		}
	}
}

// TestBinaryBatchDetachedHandler sends binary batches to a server whose
// handler timeout they overrun. Each frame answers either the whole
// batch or the timeout code, and a batch handler left running detached
// must not read the next frame, which the connection reads into the same
// buffer (the race detector reports it under make race-serve-v2).
func TestBinaryBatchDetachedHandler(t *testing.T) {
	srv, sock := startServer(t, serve.Options{HandlerTimeout: time.Microsecond})
	topo, err := srv.LoadTopology(serve.TopoParams{Topo: "small", K: 4})
	if err != nil {
		t.Fatal(err)
	}
	c, err := client.DialBinary(bg, "unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	n := int32(topo.Switches)
	timeouts := 0
	for i := int32(0); i < 20; i++ {
		pairs := make([][2]int32, 512)
		for j := range pairs {
			src := (i + int32(j)) % n
			pairs[j] = [2]int32{src, (src + 1 + int32(j)%5) % n}
		}
		res, err := c.RoutesBatch(bg, topo.Key, pairs)
		var re *client.RemoteError
		if errors.As(err, &re) && re.Code == serve.CodeTimeout {
			timeouts++
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		for j, e := range res.Entries {
			if e.Route == nil {
				t.Fatalf("batch %d pair %v: %q", i, pairs[j], e.Err)
			}
			p := e.Route.Path
			if p[0] != pairs[j][0] || p[len(p)-1] != pairs[j][1] {
				t.Fatalf("batch %d pair %v routed %v", i, pairs[j], p)
			}
		}
	}
	if timeouts == 0 {
		t.Fatal("no batch overran the 1µs handler timeout")
	}
}
