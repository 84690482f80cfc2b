package serve_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/client"
)

// The differential suite pins the tentpole invariant: the binary v2
// codec and the JSON v1 codec are two encodings of ONE protocol. Every
// op issued through both against identically configured servers must
// produce equal results — same payloads, same error codes, same
// adaptive routing choices — after normalizing the fields that measure
// wall time.

// normalizeResponse zeroes the timing fields two otherwise identical
// runs legitimately disagree on.
func normalizeResponse(r *serve.Response) {
	if r.Topo != nil {
		r.Topo.LoadSeconds = 0
		// The shared-server cache can hand one run a warm path DB and
		// the other a cold one.
		r.Topo.CacheHit = false
	}
	if r.Stats != nil {
		r.Stats.UptimeSeconds = 0
		r.Stats.QPS = 0
		r.Stats.Latency = serve.LatencySummary{Count: r.Stats.Latency.Count}
	}
	if r.Health != nil {
		r.Health.UptimeSeconds = 0
	}
}

// diffStep is one scripted request; its name keys failure messages.
type diffStep struct {
	name string
	req  serve.Request
}

// runScript drives every step over one client and returns the
// normalized responses (RemoteErrors are part of the record: the
// response carrying the error frame is captured, not the Go error).
func runScript(t *testing.T, c *client.Client, script []diffStep) []serve.Response {
	t.Helper()
	out := make([]serve.Response, 0, len(script))
	for _, st := range script {
		resp, err := c.Do(bg, st.req)
		var re *client.RemoteError
		if err != nil && !errors.As(err, &re) {
			t.Fatalf("step %s: transport error %v", st.name, err)
		}
		resp.ID = "" // ids are per-connection counters, not semantics
		normalizeResponse(&resp)
		out = append(out, resp)
	}
	return out
}

// TestDifferentialOps runs the full op surface — including the
// bad-request, batch-too-large, unknown-topo, bad-pair and pair-not-found
// error paths — through a JSON client and a binary client against two
// identically seeded servers, and requires equal normalized responses
// step by step.
func TestDifferentialOps(t *testing.T) {
	_, sockJSON := startServer(t, serve.Options{})
	_, sockBin := startServer(t, serve.Options{})

	topoParams := serve.TopoParams{Topo: "small", K: 4, Seed: 3}
	oversized := make([][2]int32, serve.MaxBatchPairs+1)
	for i := range oversized {
		oversized[i] = [2]int32{0, 1}
	}
	src0, dst1 := int32(0), int32(1)
	srcSelf := int32(2)
	srcNeg := int32(-1)

	script := []diffStep{
		{"topo-load", serve.Request{Op: serve.OpTopoLoad, Params: &topoParams}},
		{"topo-load-again", serve.Request{Op: serve.OpTopoLoad, Params: &topoParams}},
		{"health", serve.Request{Op: serve.OpHealth}},
		{"batch-empty", serve.Request{Op: serve.OpRoutesBatch, Topo: "pending", Pairs: nil}},
		{"batch-too-large", serve.Request{Op: serve.OpRoutesBatch, Topo: "pending", Pairs: oversized}},
		{"route-unknown-topo", serve.Request{Op: serve.OpRoute, Topo: "no-such-key", Src: &src0, Dst: &dst1}},
		{"bad-topo-params", serve.Request{Op: serve.OpTopoLoad, Params: &serve.TopoParams{Topo: "galactic"}}},
		{"bad-topo-k", serve.Request{Op: serve.OpTopoLoad, Params: &serve.TopoParams{Topo: "small", K: -1}}},
		{"bad-topo-sampled-ugal", serve.Request{Op: serve.OpTopoLoad,
			Params: &serve.TopoParams{Topo: "small", PairSample: 20, Mechanism: "ugal"}}},
		{"evict-unknown", serve.Request{Op: serve.OpTopoEvict, Topo: "no-such-key"}},
	}

	cj, err := client.Dial(bg, "unix", sockJSON)
	if err != nil {
		t.Fatal(err)
	}
	defer cj.Close()
	cb, err := client.DialBinary(bg, "unix", sockBin)
	if err != nil {
		t.Fatal(err)
	}
	defer cb.Close()

	jsonResps := runScript(t, cj, script)
	binResps := runScript(t, cb, script)
	key := ""
	if jsonResps[0].Topo != nil {
		key = jsonResps[0].Topo.Key
	}
	if key == "" {
		t.Fatal("topo-load returned no key")
	}
	compareResponses(t, script, jsonResps, binResps)

	// Part two needs the topology key from part one; these steps hit
	// every data-carrying op plus the per-pair error paths.
	script2 := []diffStep{
		{"route", serve.Request{Op: serve.OpRoute, Topo: key, Src: &src0, Dst: &dst1}},
		{"route-self", serve.Request{Op: serve.OpRoute, Topo: key, Src: &srcSelf, Dst: &srcSelf}},
		{"route-negative", serve.Request{Op: serve.OpRoute, Topo: key, Src: &srcNeg, Dst: &dst1}},
		{"batch", serve.Request{Op: serve.OpRoutesBatch, Topo: key, Pairs: [][2]int32{{0, 1}, {2, 2}, {3, 8}, {5, 4}}}},
		{"estimate", serve.Request{Op: serve.OpEstimate, Topo: key, Src: &src0, Dst: &dst1}},
		{"estimate-self", serve.Request{Op: serve.OpEstimate, Topo: key, Src: &srcSelf, Dst: &srcSelf}},
		{"stats", serve.Request{Op: serve.OpStats}},
		{"evict", serve.Request{Op: serve.OpTopoEvict, Topo: key}},
		{"evict-again", serve.Request{Op: serve.OpTopoEvict, Topo: key}},
	}
	jsonResps2 := runScript(t, cj, script2)
	binResps2 := runScript(t, cb, script2)
	compareResponses(t, script2, jsonResps2, binResps2)

	// Sanity: the probe pair genuinely routed in both runs (a script
	// where everything errors out would pass comparison vacuously).
	if jsonResps2[0].Route == nil || len(jsonResps2[0].Route.Path) < 2 {
		t.Fatalf("differential route step returned no path: %+v", jsonResps2[0])
	}

	// Part three: a sampled topology, for the pair-not-found path. Both
	// servers sample with the same seed, so whichever pairs are absent
	// are absent on both; the probes must answer identically either way.
	sampled := serve.TopoParams{Topo: "small", K: 4, Seed: 11, PairSample: 5}
	script3 := []diffStep{{"topo-load-sampled", serve.Request{Op: serve.OpTopoLoad, Params: &sampled}}}
	for s := int32(0); s < 4; s++ {
		for d := int32(4); d < 7; d++ {
			src, dst := s, d
			script3 = append(script3, diffStep{
				fmt.Sprintf("sampled-route-%d-%d", s, d),
				serve.Request{Op: serve.OpRoute, Topo: "SAMPLED", Src: &src, Dst: &dst},
			})
		}
	}
	jsonResps3 := runScript(t, cj, fillTopo(script3, jsonResps2, sampledKey(t, cj, sampled)))
	binResps3 := runScript(t, cb, fillTopo(script3, binResps2, sampledKey(t, cb, sampled)))
	compareResponses(t, script3, jsonResps3, binResps3)
	notFound := 0
	for _, r := range jsonResps3[1:] {
		if r.Error != nil && r.Error.Code == serve.CodePairNotFound {
			notFound++
		}
	}
	if notFound == 0 {
		t.Fatal("a 5-pair sample left none of the 12 probes absent; pair-not-found path untested")
	}

	// Every production op in the op table is compared somewhere: in the
	// scripts above, or (sweep) by TestDifferentialSweep.
	covered := map[string]bool{serve.OpSweep: true}
	for _, sc := range [][]diffStep{script, script2, script3} {
		for _, st := range sc {
			covered[st.req.Op] = true
		}
	}
	for _, op := range serve.TableOps() {
		if !op.Test && !covered[op.Name] {
			t.Errorf("op %s is in the op table but not in the differential suite", op.Name)
		}
	}
}

// sampledKey resolves the sampled topology's key on one server.
func sampledKey(t *testing.T, c *client.Client, p serve.TopoParams) string {
	t.Helper()
	res, err := c.TopoLoad(bg, p)
	if err != nil {
		t.Fatal(err)
	}
	return res.Key
}

// fillTopo substitutes the placeholder topo key into a script copy.
func fillTopo(script []diffStep, _ []serve.Response, key string) []diffStep {
	out := make([]diffStep, len(script))
	for i, st := range script {
		out[i] = st
		if st.req.Topo == "SAMPLED" {
			req := st.req
			req.Topo = key
			out[i].req = req
		}
	}
	return out
}

func compareResponses(t *testing.T, script []diffStep, jsonResps, binResps []serve.Response) {
	t.Helper()
	for i := range script {
		j, b := jsonResps[i], binResps[i]
		if !reflect.DeepEqual(j, b) {
			jb, _ := json.Marshal(j)
			bb, _ := json.Marshal(b)
			t.Errorf("step %s diverged:\n json   %s\n binary %s", script[i].name, jb, bb)
		}
	}
}

// TestDifferentialSweep streams the same seeded sweep over both codecs
// against twin servers: the ack, every chunk (seq, routed, entries) and
// the final totals must be identical.
func TestDifferentialSweep(t *testing.T) {
	_, sockJSON := startServer(t, serve.Options{})
	_, sockBin := startServer(t, serve.Options{})

	run := func(sock string, bin bool) (serve.SweepStart, []serve.SweepChunk, serve.SweepDone, string) {
		dialf := client.Dial
		if bin {
			dialf = client.DialBinary
		}
		c, err := dialf(bg, "unix", sock)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		topo, err := c.TopoLoad(bg, serve.TopoParams{Topo: "small", K: 4, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		var chunks []serve.SweepChunk
		start, done, err := c.Sweep(bg, topo.Key, serve.SweepParams{Count: 700, Seed: 99, Chunk: 256},
			func(ch serve.SweepChunk) error {
				chunks = append(chunks, ch)
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return start, chunks, done, topo.Key
	}

	jStart, jChunks, jDone, jKey := run(sockJSON, false)
	bStart, bChunks, bDone, bKey := run(sockBin, true)
	if jKey != bKey {
		t.Fatalf("twin servers derived different topo keys: %q vs %q", jKey, bKey)
	}
	if jStart != bStart {
		t.Fatalf("sweep acks diverged: json %+v, binary %+v", jStart, bStart)
	}
	if jDone != bDone {
		t.Fatalf("sweep totals diverged: json %+v, binary %+v", jDone, bDone)
	}
	if !reflect.DeepEqual(jChunks, bChunks) {
		t.Fatalf("sweep chunk streams diverged (%d vs %d chunks)", len(jChunks), len(bChunks))
	}
	if jStart.TotalPairs != 700 || jDone.Routed+jDone.Failed != 700 {
		t.Fatalf("sweep accounting wrong: %+v %+v", jStart, jDone)
	}
}

// TestDifferentialOverloaded provokes the overloaded code on both
// codecs: a slow request holds the single in-flight slot while a probe
// arrives on a second connection of the codec under test.
func TestDifferentialOverloaded(t *testing.T) {
	for _, bin := range []bool{false, true} {
		t.Run(map[bool]string{false: "json", true: "binary"}[bin], func(t *testing.T) {
			srv, sock := startServer(t, serve.Options{MaxInFlight: 1, EnableTestOps: true})
			dialf := client.Dial
			if bin {
				dialf = client.DialBinary
			}
			slow, err := dialf(bg, "unix", sock)
			if err != nil {
				t.Fatal(err)
			}
			defer slow.Close()
			slowDone := make(chan error, 1)
			go func() {
				_, err := slow.Do(bg, serve.Request{Op: serve.OpTestSleep, SleepMS: 400})
				slowDone <- err
			}()
			waitFor(t, func() bool { return srv.InFlight() == 1 })

			probe, err := dialf(bg, "unix", sock)
			if err != nil {
				t.Fatal(err)
			}
			defer probe.Close()
			_, err = probe.Do(bg, serve.Request{Op: serve.OpStats})
			wantCode(t, err, serve.CodeOverloaded)
			if err := <-slowDone; err != nil {
				t.Fatalf("slow request failed: %v", err)
			}
		})
	}
}

// TestDifferentialTimeout provokes the timeout code on both codecs via
// a handler deadline the test-sleep op overruns.
func TestDifferentialTimeout(t *testing.T) {
	for _, bin := range []bool{false, true} {
		t.Run(map[bool]string{false: "json", true: "binary"}[bin], func(t *testing.T) {
			_, sock := startServer(t, serve.Options{
				HandlerTimeout: 40 * time.Millisecond, EnableTestOps: true,
			})
			dialf := client.Dial
			if bin {
				dialf = client.DialBinary
			}
			c, err := dialf(bg, "unix", sock)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			_, err = c.Do(bg, serve.Request{Op: serve.OpTestSleep, SleepMS: 300})
			wantCode(t, err, serve.CodeTimeout)
		})
	}
}

// TestDifferentialInternalError provokes internal-error (and the
// connection poisoning that follows it) on both codecs via test-crash.
func TestDifferentialInternalError(t *testing.T) {
	for _, bin := range []bool{false, true} {
		t.Run(map[bool]string{false: "json", true: "binary"}[bin], func(t *testing.T) {
			srv, sock := startServer(t, serve.Options{EnableTestOps: true})
			dialf := client.Dial
			if bin {
				dialf = client.DialBinary
			}
			c, err := dialf(bg, "unix", sock)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			_, err = c.Do(bg, serve.Request{Op: serve.OpTestCrash})
			wantCode(t, err, serve.CodeInternal)
			if got := srv.Counters().Panics; got != 1 {
				t.Fatalf("panic counter = %d, want 1", got)
			}
			// The poisoned connection redials transparently.
			if _, err := c.Health(bg); err != nil {
				t.Fatalf("health after redial: %v", err)
			}
		})
	}
}

// TestDifferentialBadRequestMessage pins not just the code but the
// message for a shared validation failure: both codecs must route
// through the same handler and produce the same bad-request text.
func TestDifferentialBadRequestMessage(t *testing.T) {
	get := func(bin bool) *client.RemoteError {
		dialf := client.Dial
		if bin {
			dialf = client.DialBinary
		}
		c, err := dialf(bg, "unix", testSock)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		_, err = c.RoutesBatch(bg, testKey, nil)
		var re *client.RemoteError
		if !errors.As(err, &re) {
			t.Fatalf("got %v, want RemoteError", err)
		}
		return re
	}
	j, b := get(false), get(true)
	if j.Code != serve.CodeBadRequest || *j != *b {
		t.Fatalf("bad-request divergence: json %+v, binary %+v", j, b)
	}
}
