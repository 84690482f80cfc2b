package serve_test

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/client"
)

// bg is the default context for calls whose cancellation is not under
// test (the context-behavior tests build their own).
var bg = context.Background()

// The package shares one server (loading a path DB dominates test
// time); tests that mutate server lifecycle start their own.
var (
	testSock string
	testSrv  *serve.Server
	testKey  string
	testSw   int
)

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "jfserve-test")
	if err != nil {
		panic(err)
	}
	testSock = filepath.Join(dir, "jfserve.sock")
	l, err := net.Listen("unix", testSock)
	if err != nil {
		panic(err)
	}
	testSrv = serve.NewServer(serve.Options{})
	done := make(chan error, 1)
	go func() { done <- testSrv.Serve(l) }()
	res, err := testSrv.LoadTopology(serve.TopoParams{Topo: "small", K: 4})
	if err != nil {
		panic(err)
	}
	testKey, testSw = res.Key, res.Switches

	code := m.Run()
	testSrv.Stop()
	if err := <-done; err != nil {
		panic(err)
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

func dial(t *testing.T) *client.Client {
	t.Helper()
	c, err := client.Dial(bg, "unix", testSock)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// rawConn sends hand-built frames, for the cases a correct client
// cannot produce.
func rawConn(t *testing.T) (net.Conn, *bufio.Scanner) {
	t.Helper()
	conn, err := net.Dial("unix", testSock)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 64<<10), serve.MaxFrameBytes)
	return conn, sc
}

func rawRequest(t *testing.T, conn net.Conn, sc *bufio.Scanner, frame string) serve.Response {
	t.Helper()
	if _, err := fmt.Fprintf(conn, "%s\n", frame); err != nil {
		t.Fatal(err)
	}
	if !sc.Scan() {
		t.Fatalf("no response to %q: %v", frame, sc.Err())
	}
	var resp serve.Response
	if err := json.Unmarshal(sc.Bytes(), &resp); err != nil {
		t.Fatalf("bad response frame %q: %v", sc.Bytes(), err)
	}
	return resp
}

func wantCode(t *testing.T, err error, code string) {
	t.Helper()
	var re *client.RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("got error %v, want RemoteError %s", err, code)
	}
	if re.Code != code {
		t.Fatalf("got code %s (%s), want %s", re.Code, re.Message, code)
	}
}

func TestRouteRoundTrip(t *testing.T) {
	c := dial(t)
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

// TestRouteUGALTwoSwitches loads the smallest valid topology, two
// switches joined by one link, under UGAL, and requires route to answer
// both directions with the direct link: there is no switch to serve as
// UGAL's Valiant intermediate.
func TestRouteUGALTwoSwitches(t *testing.T) {
	c := dial(t)
	res, err := c.TopoLoad(bg, serve.TopoParams{N: 2, X: 2, Y: 1, Selector: "KSP", K: 2, Mechanism: "ugal"})
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range [][2]int32{{0, 1}, {1, 0}} {
		ctx, cancel := context.WithTimeout(bg, 2*time.Second)
		r, err := c.Route(ctx, res.Key, pr[0], pr[1])
		cancel()
		if err != nil {
			t.Fatalf("route %d->%d: %v", pr[0], pr[1], err)
		}
		if r.Index != 0 || r.Hops != 1 || len(r.Path) != 2 || r.Path[0] != pr[0] || r.Path[1] != pr[1] {
			t.Fatalf("route %d->%d = %+v, want the direct link", pr[0], pr[1], r)
		}
	}
}

func TestRoutesBatchRoundTrip(t *testing.T) {
	c := dial(t)
	pairs := [][2]int32{{0, 1}, {2, 3}, {5, 5}, {4, 9}}
	br, err := c.RoutesBatch(bg, testKey, pairs)
	if err != nil {
		t.Fatal(err)
	}
	if len(br.Entries) != len(pairs) {
		t.Fatalf("got %d entries for %d pairs", len(br.Entries), len(pairs))
	}
	if br.Routed != 3 {
		t.Fatalf("routed %d, want 3 (the self pair must fail)", br.Routed)
	}
	if br.Entries[2].Err != serve.CodeBadPair || br.Entries[2].Route != nil {
		t.Fatalf("self-pair entry = %+v, want err %s", br.Entries[2], serve.CodeBadPair)
	}
	for i, e := range []int{0, 1, 3} {
		ent := br.Entries[e]
		if ent.Route == nil {
			t.Fatalf("entry %d: no route (err %s)", e, ent.Err)
		}
		want := pairs[e]
		p := ent.Route.Path
		if p[0] != want[0] || p[len(p)-1] != want[1] {
			t.Fatalf("entry %d: path %v does not connect %v", i, p, want)
		}
	}
}

func TestEstimateRoundTrip(t *testing.T) {
	c := dial(t)
	est, err := c.Estimate(bg, testKey, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if est.Candidates < 1 || est.Candidates > 4 {
		t.Fatalf("candidates %d outside [1, k=4]", est.Candidates)
	}
	if est.MinHops < 1 || est.AvgHops < float64(est.MinHops) {
		t.Fatalf("hops summary inconsistent: min %d avg %v", est.MinHops, est.AvgHops)
	}
	if est.MaxShare < 1 || est.Throughput <= 0 || est.Throughput > 1 {
		t.Fatalf("estimate out of range: max_share %d throughput %v", est.MaxShare, est.Throughput)
	}
	if est.MaxShare == 1 && est.Throughput != 1 {
		t.Fatalf("disjoint set must score exactly 1.0, got %v", est.Throughput)
	}
}

func TestStatsRoundTrip(t *testing.T) {
	c := dial(t)
	if _, err := c.Route(bg, testKey, 1, 2); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats(bg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests < 1 || st.RouteLookups < 1 || st.QPS <= 0 {
		t.Fatalf("stats counters empty after traffic: %+v", st)
	}
	if st.PerOp[serve.OpRoute] < 1 {
		t.Fatalf("per-op route count %d, want >= 1", st.PerOp[serve.OpRoute])
	}
	if st.Latency.Count < 1 {
		t.Fatalf("latency histogram empty: %+v", st.Latency)
	}
	found := false
	for _, topo := range st.Topos {
		if topo.Key == testKey {
			found = true
			if topo.K != 4 || topo.Switches != testSw {
				t.Fatalf("topo info mismatch: %+v", topo)
			}
		}
	}
	if !found {
		t.Fatalf("stats does not list the loaded topology %s", testKey)
	}
}

func TestTopoLoadEvict(t *testing.T) {
	c := dial(t)
	// Distinct seed → distinct key, so this test owns its topology.
	p := serve.TopoParams{Topo: "small", K: 4, Seed: 7, PairSample: 20}
	res, err := c.TopoLoad(bg, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pairs != 20 || res.AlreadyLoaded {
		t.Fatalf("first load = %+v, want 20 fresh pairs", res)
	}
	again, err := c.TopoLoad(bg, p)
	if err != nil {
		t.Fatal(err)
	}
	if !again.AlreadyLoaded || again.Key != res.Key {
		t.Fatalf("reload = %+v, want already_loaded with key %s", again, res.Key)
	}
	if err := c.TopoEvict(bg, res.Key); err != nil {
		t.Fatal(err)
	}
	wantCode(t, c.TopoEvict(bg, res.Key), serve.CodeUnknownTopo)
}

func TestMalformedFrame(t *testing.T) {
	conn, sc := rawConn(t)
	resp := rawRequest(t, conn, sc, `{"v":1,"op":`)
	if resp.OK || resp.Error == nil || resp.Error.Code != serve.CodeBadJSON {
		t.Fatalf("got %+v, want %s", resp, serve.CodeBadJSON)
	}
	// The connection survives a bad frame.
	resp = rawRequest(t, conn, sc, `{"v":1,"id":"after","op":"stats"}`)
	if !resp.OK || resp.ID != "after" {
		t.Fatalf("connection unusable after bad frame: %+v", resp)
	}
}

func TestUnknownOp(t *testing.T) {
	conn, sc := rawConn(t)
	resp := rawRequest(t, conn, sc, `{"v":1,"id":"x","op":"fly"}`)
	if resp.OK || resp.Error == nil || resp.Error.Code != serve.CodeUnknownOp {
		t.Fatalf("got %+v, want %s", resp, serve.CodeUnknownOp)
	}
	if resp.ID != "x" {
		t.Fatalf("error response dropped the request id: %+v", resp)
	}
}

func TestBadVersion(t *testing.T) {
	conn, sc := rawConn(t)
	for _, frame := range []string{
		`{"v":2,"op":"stats"}`,
		`{"op":"stats"}`, // missing v is not v1
	} {
		resp := rawRequest(t, conn, sc, frame)
		if resp.OK || resp.Error == nil || resp.Error.Code != serve.CodeBadVersion {
			t.Fatalf("%s: got %+v, want %s", frame, resp, serve.CodeBadVersion)
		}
	}
}

func TestOversizedBatch(t *testing.T) {
	c := dial(t)
	pairs := make([][2]int32, serve.MaxBatchPairs+1)
	for i := range pairs {
		pairs[i] = [2]int32{0, 1}
	}
	_, err := c.RoutesBatch(bg, testKey, pairs)
	wantCode(t, err, serve.CodeBatchTooLarge)

	_, err = c.RoutesBatch(bg, testKey, nil)
	wantCode(t, err, serve.CodeBadRequest)
}

func TestUnloadedTopology(t *testing.T) {
	c := dial(t)
	_, err := c.Route(bg, "no-such-key", 0, 1)
	wantCode(t, err, serve.CodeUnknownTopo)
	_, err = c.RoutesBatch(bg, "no-such-key", [][2]int32{{0, 1}})
	wantCode(t, err, serve.CodeUnknownTopo)
	_, err = c.Estimate(bg, "no-such-key", 0, 1)
	wantCode(t, err, serve.CodeUnknownTopo)
}

func TestBadPair(t *testing.T) {
	c := dial(t)
	_, err := c.Route(bg, testKey, 3, 3)
	wantCode(t, err, serve.CodeBadPair)
	_, err = c.Route(bg, testKey, 0, int32(testSw))
	wantCode(t, err, serve.CodeBadPair)
	_, err = c.Route(bg, testKey, -1, 1)
	wantCode(t, err, serve.CodeBadPair)
	_, err = c.Estimate(bg, testKey, 5, 5)
	wantCode(t, err, serve.CodeBadPair)
}

func TestMissingFields(t *testing.T) {
	conn, sc := rawConn(t)
	for _, frame := range []string{
		`{"v":1,"op":"route","topo":"k"}`,            // no src/dst
		`{"v":1,"op":"route","topo":"k","src":0}`,    // no dst
		`{"v":1,"op":"estimate","topo":"k","dst":1}`, // no src
		`{"v":1,"op":"topo-load"}`,                   // no params
		`{"v":1,"op":"topo-evict"}`,                  // no topo
		`{"v":1,"op":"routes-batch","topo":"k"}`,     // no pairs
	} {
		resp := rawRequest(t, conn, sc, frame)
		if resp.OK || resp.Error == nil || resp.Error.Code != serve.CodeBadRequest {
			t.Fatalf("%s: got %+v, want %s", frame, resp, serve.CodeBadRequest)
		}
	}
}

func TestBadTopoParams(t *testing.T) {
	c := dial(t)
	for _, p := range []serve.TopoParams{
		{Topo: "galactic"},
		{N: -3, X: 4, Y: 2},
		{Topo: "small", Selector: "nope"},
		{Topo: "small", Selector: "LLSKR"},
		{Topo: "small", Mechanism: "nope"},
		{Topo: "small", Estimator: "nope"},
		{Topo: "small", PairSample: -1},
		{Topo: "small", K: -1},
		{Topo: "small", K: 65},
		{Topo: "small", PairSample: 20, Mechanism: "ugal"},
	} {
		_, err := c.TopoLoad(bg, p)
		wantCode(t, err, serve.CodeBadRequest)
	}
}

func TestPairNotFoundOnSampledTopo(t *testing.T) {
	c := dial(t)
	res, err := c.TopoLoad(bg, serve.TopoParams{Topo: "small", K: 4, Seed: 11, PairSample: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer c.TopoEvict(bg, res.Key)
	notFound := 0
	for src := int32(0); src < int32(res.Switches) && notFound == 0; src++ {
		for dst := src + 1; dst < int32(res.Switches); dst++ {
			_, err := c.Route(bg, res.Key, src, dst)
			if err == nil {
				continue
			}
			var re *client.RemoteError
			if !errors.As(err, &re) {
				t.Fatal(err)
			}
			if re.Code != serve.CodePairNotFound {
				t.Fatalf("absent pair %d->%d: code %s, want %s", src, dst, re.Code, serve.CodePairNotFound)
			}
			notFound++
			break
		}
	}
	if notFound == 0 {
		t.Fatal("a 5-pair sample left no absent pair to probe")
	}
}

func TestFrameTooLarge(t *testing.T) {
	conn, sc := rawConn(t)
	if _, err := conn.Write([]byte(strings.Repeat("a", serve.MaxFrameBytes+2) + "\n")); err != nil {
		t.Fatal(err)
	}
	if !sc.Scan() {
		t.Fatalf("no response to oversized frame: %v", sc.Err())
	}
	var resp serve.Response
	if err := json.Unmarshal(sc.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.OK || resp.Error == nil || resp.Error.Code != serve.CodeFrameTooLarge {
		t.Fatalf("got %+v, want %s", resp, serve.CodeFrameTooLarge)
	}
	// The frame boundary is lost, so the server must close the connection.
	if sc.Scan() {
		t.Fatalf("connection still open after oversized frame: %q", sc.Bytes())
	}
}

// TestWireFieldNames locks the JSON field names documented in
// docs/SERVICE.md: a renamed Go field must fail here, not in a client.
func TestWireFieldNames(t *testing.T) {
	conn, sc := rawConn(t)
	if _, err := fmt.Fprintf(conn, `{"v":1,"id":"w","op":"route","topo":%q,"src":0,"dst":1}`+"\n", testKey); err != nil {
		t.Fatal(err)
	}
	if !sc.Scan() {
		t.Fatal(sc.Err())
	}
	var generic map[string]any
	if err := json.Unmarshal(sc.Bytes(), &generic); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"v", "id", "ok", "route"} {
		if _, ok := generic[field]; !ok {
			t.Fatalf("route response lacks documented field %q: %s", field, sc.Bytes())
		}
	}
	route := generic["route"].(map[string]any)
	for _, field := range []string{"path", "index", "hops"} {
		if _, ok := route[field]; !ok {
			t.Fatalf("route payload lacks documented field %q: %s", field, sc.Bytes())
		}
	}
}

// TestShutdownDrain verifies Stop lets an in-flight stream finish
// cleanly: every response received before the connection closes is
// complete, Serve returns nil, and the listener stops accepting.
func TestShutdownDrain(t *testing.T) {
	dir := t.TempDir()
	sock := filepath.Join(dir, "drain.sock")
	l, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(serve.Options{})
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()

	c, err := client.Dial(bg, "unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Stats(bg); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	first := make(chan struct{})
	var served int
	go func() {
		defer close(stop)
		for {
			st, err := c.Stats(bg)
			if err != nil {
				return // the connection closed mid-stream; fine
			}
			if st.Requests < 1 {
				t.Error("drained response is incomplete")
				return
			}
			if served++; served == 1 {
				close(first)
			}
		}
	}()
	<-first // Stop lands while the request stream is in flight
	srv.Stop()
	<-stop
	if err := <-done; err != nil {
		t.Fatalf("Serve returned %v after Stop, want nil", err)
	}
	if served < 1 {
		t.Fatal("no request completed before shutdown")
	}
	if _, err := net.Dial("unix", sock); err == nil {
		t.Fatal("listener still accepting after Stop")
	}
}

// TestConcurrentBatches hammers routes-batch from many clients at once;
// under -race this is the serving path's data-race gate.
func TestConcurrentBatches(t *testing.T) {
	const clients = 8
	const batches = 10
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := client.Dial(bg, "unix", testSock)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			pairs := make([][2]int32, 64)
			for b := 0; b < batches; b++ {
				for j := range pairs {
					s := int32((i*31 + b*7 + j) % testSw)
					d := int32((s + 1 + int32(j%10)) % int32(testSw))
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
