package bench

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/graph"
	"repro/internal/jellyfish"
	"repro/internal/ksp"
	"repro/internal/paths"
	"repro/internal/routing"
	"repro/internal/seeds"
	"repro/internal/serve"
	"repro/internal/serve/client"
	"repro/internal/xrand"
)

// The serve workload's phases, each against a fresh daemon, as shares of
// the run's seconds. Interactive and bulk-binary carry the end-to-end
// metrics and get the most time.
var servePhases = []struct {
	name  string
	share float64
}{
	{"interactive", 0.35},
	{"bulk-binary", 0.35},
	{"bulk-json", 0.15},
	{"sweep", 0.15},
}

// serveWindow is the interval bulk throughput is counted over. The
// reported rate is the 90th-percentile window's: interference from the
// host's other tenants only slows windows down, so the upper windows track
// the daemon rather than its neighbours (run-to-run spread 0.12 against
// 0.19 for the median window, over eight seeds).
const serveWindow = 250 * time.Millisecond

// daemon is one jfserve process.
type daemon struct {
	cmd    *exec.Cmd
	exited chan error // receives Wait's result once the daemon has exited
	addr   string
	key    string
	ready  time.Duration
}

// startDaemon execs jfserve on an abstract Unix socket (no file to clean
// up, no path-length limit) with the small topology preloaded, and waits
// for its listening line.
func (r *run) startDaemon(n int) (*daemon, error) {
	d := &daemon{addr: fmt.Sprintf("@jfbench-%d-%d", os.Getpid(), n), exited: make(chan error, 1)}
	d.cmd = exec.Command(r.opts.Jfserve, "-listen", "unix:"+d.addr, "-preload", "small",
		"-seed", strconv.FormatUint(r.opts.Seed, 10), "-quiet")
	d.cmd.Stderr = os.Stderr
	pr, pw := io.Pipe()
	d.cmd.Stdout = pw
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start jfserve: %w", err)
	}
	go func() {
		err := d.cmd.Wait()
		pw.Close()
		d.exited <- err
	}()
	// The reader drains stdout until the daemon exits, so the daemon never
	// blocks on it; it sends the topology key once, on the listening line.
	listening := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(pr)
		key := ""
		for sc.Scan() {
			line := sc.Text()
			if rest, found := strings.CutPrefix(line, "loaded small: key "); found {
				if i := strings.LastIndex(rest, " ("); i >= 0 { // the key itself has spaces
					key = rest[:i]
				}
			}
			if strings.HasPrefix(line, "jfserve: listening on") {
				listening <- key
			}
		}
	}()
	select {
	case d.key = <-listening:
		d.ready = time.Since(t0)
		if d.key == "" {
			d.stop()
			return nil, fmt.Errorf("jfserve listened without reporting its topology key")
		}
		return d, nil
	case err := <-d.exited:
		return nil, fmt.Errorf("jfserve exited before listening: %v", err)
	case <-time.After(60 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
		return nil, fmt.Errorf("jfserve did not listen within 60s")
	}
}

// stop asks the daemon to drain and exit, and returns its peak RSS (MiB)
// and CPU time (s).
func (d *daemon) stop() (rssMiB, cpuS float64, err error) {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err = <-d.exited:
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill()
		err = fmt.Errorf("jfserve did not drain within 20s: %v", <-d.exited)
	}
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rssMiB = float64(ru.Maxrss) / 1024
		cpuS = tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
	}
	return rssMiB, cpuS, err
}

// phaseStats is what one phase measured.
type phaseStats struct {
	wall      time.Duration
	requests  int64
	lookups   int64
	rtts      []float64 // interactive round trips, us
	windows   []float64 // lookups per second per full window
	sweepRate []float64 // pairs per second per sweep
	daemon    serve.StatsResult
	cpuS      float64
}

// serveEnv is what every phase shares: the locally built topology and
// path DB the daemon must be serving.
type serveEnv struct {
	g    *graph.Graph
	key  string
	db   *paths.DB
	seed uint64 // the path DB seed
}

// runServe measures the jfserve daemon in four phases, each against a
// fresh daemon on a Unix socket with the small topology preloaded, driven
// closed-loop from this process (the Go client is synchronous per
// connection): interactive JSON route calls from GOMAXPROCS callers,
// routes-batch frames over the binary and the JSON codecs on one
// connection, and streaming sweeps. The operation is one route lookup;
// throughput is the bulk-binary phase's lookups per second (90th-percentile
// window), latency the interactive round trip.
func runServe(r *run) error {
	if r.opts.Jfserve == "" {
		return fmt.Errorf("bench: serve workload needs a jfserve binary")
	}
	size := r.opts.Size
	seed := r.opts.Seed
	sp := r.tr.start(r.root, "local-topology")
	topo, err := jellyfish.New(jellyfish.Small, seeds.TopoRNG(seed, 0))
	if err != nil {
		return err
	}
	cfg := ksp.Config{Alg: ksp.REDKSP, K: 8}
	env := &serveEnv{g: topo.G, seed: seeds.PathSeed(seed, 0, ksp.REDKSP)}
	env.key = serve.TopoKey(topo.G, cfg, env.seed)
	env.db = paths.BuildAllPairs(topo.G, cfg, env.seed, 0)
	sp.end()

	conns := runtime.GOMAXPROCS(0)
	var setups []float64
	var peakRSS, interactiveRSS, daemonCPU float64
	stats := map[string]*phaseStats{}
	cpu0 := cpuSeconds()
	var loadWall time.Duration
	for i, ph := range servePhases {
		ps := r.tr.start(r.root, "serve."+ph.name)
		ds := r.tr.start(ps, "jfserve.start")
		d, err := r.startDaemon(i)
		if err != nil {
			return err
		}
		ds.end()
		setups = append(setups, d.ready.Seconds())
		r.check(d.key == env.key, "serve: daemon serves %q, locally built topology is %q", d.key, env.key)

		st := &phaseStats{}
		dur := time.Duration(ph.share * r.opts.Seconds * float64(time.Second))
		ls := r.tr.start(ps, "load")
		t0 := time.Now()
		var perr error
		switch ph.name {
		case "interactive":
			perr = r.interactive(env, d, conns, dur, st)
		case "bulk-binary":
			perr = r.bulk(env, d, dur, size.BatchPairs, true, st)
		case "bulk-json":
			perr = r.bulk(env, d, dur, size.BatchPairs, false, st)
		case "sweep":
			perr = r.sweeps(env, d, dur, size.SweepPairs, st)
		}
		st.wall = time.Since(t0)
		loadWall += st.wall
		ls.set("requests", float64(st.requests))
		ls.set("lookups", float64(st.lookups))
		ls.end()

		if perr == nil {
			perr = func() error {
				ctl, err := client.Dial(r.ctx, "unix", d.addr)
				if err != nil {
					return err
				}
				defer ctl.Close()
				st.daemon, err = ctl.Stats(r.ctx)
				return err
			}()
		}
		peak, cpuS, serr := d.stop()
		ps.end()
		if perr != nil {
			return fmt.Errorf("serve %s phase: %w", ph.name, perr)
		}
		if serr != nil {
			return serr
		}
		st.cpuS = cpuS
		peakRSS = max(peakRSS, peak)
		if ph.name == "interactive" {
			interactiveRSS = peak
		}
		daemonCPU += cpuS
		r.check(st.daemon.Requests == st.requests && st.daemon.RouteLookups == st.lookups,
			"serve %s: daemon counted %d requests and %d lookups, the client %d and %d",
			ph.name, st.daemon.Requests, st.daemon.RouteLookups, st.requests, st.lookups)
		stats[ph.name] = st
		r.logf("serve: %-11s %8d requests %10d lookups in %.2fs; daemon ready in %.3fs, %.2fs CPU, %.1f MiB",
			ph.name, st.requests, st.lookups, st.wall.Seconds(), d.ready.Seconds(), cpuS, peak)
	}
	loadCPU := cpuSeconds() - cpu0

	in, bin := stats["interactive"], stats["bulk-binary"]
	r.e2e("setup_s", Median(setups))
	r.e2e("throughput", Percentile(bin.windows, 90))
	r.e2e("latency_p50_us", Median(in.rtts))
	// The interactive daemon's peak: it holds the topology and serves
	// allocating JSON requests, and reads the same from run to run (spread
	// 0.02 over eight seeds). The bulk daemons' peaks depend on when their
	// collector ran against large frames (spread 0.16); they count only in
	// serve.daemon_peak_rss_mb.
	r.e2e("memory_mb", interactiveRSS)
	r.logf("serve: %.0f binary batched lookups/s (p90 of %d %v windows); route round trip %s",
		Percentile(bin.windows, 90), len(bin.windows), serveWindow, latencySummary(in.rtts))

	if r.opts.Trace {
		r.layer("serve.daemon_cpu_s", daemonCPU)
		r.layer("serve.daemon_peak_rss_mb", peakRSS)
		perLookup := func(st *phaseStats) float64 {
			if st.daemon.RouteLookups == 0 {
				return 0
			}
			return st.cpuS * 1e9 / float64(st.daemon.RouteLookups)
		}
		r.layer("serve.cpu_ns_per_route", perLookup(in))
		r.layer("serve.cpu_ns_per_lookup.binary", perLookup(bin))
		r.layer("serve.cpu_ns_per_lookup.json", perLookup(stats["bulk-json"]))
		r.layer("serve.cpu_ns_per_lookup.sweep", perLookup(stats["sweep"]))
		r.layer("serve.service_p50_us", in.daemon.Latency.P50Micros)
		r.layer("serve.service_p99_us", in.daemon.Latency.P99Micros)
		r.layer("serve.wait_us_p50", Median(in.rtts)-in.daemon.Latency.P50Micros)
		var reqs, lookups int64
		for _, st := range stats {
			reqs += st.daemon.Requests
			lookups += st.daemon.RouteLookups
		}
		r.layer("serve.requests", float64(reqs))
		r.layer("serve.route_lookups", float64(lookups))
		r.layer("serve.route_ops_per_s", float64(in.requests)/in.wall.Seconds())
		r.layer("serve.json_batch_lookups_per_s", Percentile(stats["bulk-json"].windows, 90))
		r.layer("serve.sweep_pairs_per_s", Median(stats["sweep"].sweepRate))
		r.layer("client.rtt_p99_us", tailOrMax(in.rtts, 99))
		r.layer("client.rtt_p999_us", tailOrMax(in.rtts, 99.9))
		r.layer("client.samples", float64(len(in.rtts)))
		r.layer("loadgen.cpu_frac", loadCPU/(loadWall.Seconds()*float64(conns)))
		st, _ := env.db.StoreStats()
		r.layer("paths.bytes_per_pair", float64(st.TotalBytes)/float64(st.Pairs))
		rs := r.tr.start(r.root, "serve.replay")
		err := r.replay(env, size.BatchPairs)
		rs.end()
		if err != nil {
			return err
		}
	}
	return nil
}

// pairStream draws the seeded (src, dst != src) pairs one connection
// sends.
func pairStream(seed uint64, conn int, n int) func() (int32, int32) {
	rng := xrand.NewPair(seed^0x73657276, uint64(conn)) // "serv"
	return func() (int32, int32) {
		s := rng.IntN(n)
		return int32(s), int32(rng.IntNExcept(n, s))
	}
}

// interactive drives one closed-loop caller per connection issuing JSON
// route calls, timing each round trip.
func (r *run) interactive(env *serveEnv, d *daemon, conns int, dur time.Duration, st *phaseStats) error {
	deadline := time.Now().Add(dur)
	var mu sync.Mutex // guards st and errs
	var errs []error
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl, err := client.Dial(r.ctx, "unix", d.addr)
			if err != nil {
				mu.Lock()
				errs = append(errs, err)
				mu.Unlock()
				return
			}
			defer cl.Close()
			next := pairStream(r.opts.Seed^0x73676c, i, env.g.NumNodes()) // "sgl"
			var requests, lookups int64
			var rtts []float64
			for time.Now().Before(deadline) {
				s, t := next()
				t0 := time.Now()
				res, err := cl.Route(r.ctx, env.key, s, t)
				rtt := time.Since(t0)
				requests++
				if !r.check(err == nil && validRoute(env.g, res.Path, s, t) && res.Hops == len(res.Path)-1,
					"serve route %d->%d: %+v %v", s, t, res, err) {
					continue
				}
				lookups++
				rtts = append(rtts, float64(rtt.Nanoseconds())/1e3)
			}
			r.attempt(requests, 0)
			mu.Lock()
			st.requests += requests
			st.lookups += lookups
			st.rtts = append(st.rtts, rtts...)
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// bulk drives one closed-loop connection issuing routes-batch frames of
// batch pairs over the binary (v2) or JSON (v1) codec, counting every
// frame's routed pairs into serveWindow windows. It uses one connection:
// with two, the client's decoding of responses competed with the daemon
// for the host's two CPUs and the rate's run-to-run spread grew (0.24
// against 0.19 over eight seeds).
func (r *run) bulk(env *serveEnv, d *daemon, dur time.Duration, batch int, binary bool, st *phaseStats) error {
	dial := client.Dial
	if binary {
		dial = client.DialBinary
	}
	cl, err := dial(r.ctx, "unix", d.addr)
	if err != nil {
		return err
	}
	defer cl.Close()
	win := make([]int64, max(1, int(dur/serveWindow)))
	next := pairStream(r.opts.Seed, 0, env.g.NumNodes())
	pairs := make([][2]int32, batch)
	start := time.Now()
	for deadline := start.Add(dur); time.Now().Before(deadline); {
		for j := range pairs {
			s, t := next()
			pairs[j] = [2]int32{s, t}
		}
		br, err := cl.RoutesBatch(r.ctx, env.key, pairs)
		st.requests++
		r.attempt(int64(batch), 0)
		if !r.checkOps(err == nil && len(br.Entries) == len(pairs), int64(batch),
			"serve routes-batch: %d entries for %d pairs: %v", len(br.Entries), len(pairs), err) {
			continue
		}
		bad := int64(batch - br.Routed)
		for j, e := range br.Entries {
			if e.Route != nil && !validRoute(env.g, e.Route.Path, pairs[j][0], pairs[j][1]) {
				bad++
			}
		}
		if !r.checkOps(bad == 0, bad, "serve routes-batch: %d of %d routes missing or invalid", bad, len(pairs)) {
			continue
		}
		st.lookups += int64(br.Routed)
		if w := int(time.Since(start) / serveWindow); w < len(win) {
			win[w] += int64(br.Routed)
		}
	}
	secs := min(serveWindow, dur).Seconds()
	for _, n := range win {
		st.windows = append(st.windows, float64(n)/secs)
	}
	return nil
}

// sweeps streams generated-pair sweeps over one binary connection until
// dur has passed (at least one), validating every routed pair against
// the same generated stream recomputed here.
func (r *run) sweeps(env *serveEnv, d *daemon, dur time.Duration, count int, st *phaseStats) error {
	cl, err := client.DialBinary(r.ctx, "unix", d.addr)
	if err != nil {
		return err
	}
	defer cl.Close()
	deadline := time.Now().Add(dur)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		p := serve.SweepParams{Count: count, Seed: xrand.Mix64(r.opts.Seed ^ 0x73777065 ^ uint64(i))} // "swpe"
		t0 := time.Now()
		routed, bad, digest, err := sweepOnce(r.ctx, cl, env, p)
		secs := time.Since(t0).Seconds()
		st.requests++
		r.attempt(int64(count), 0)
		if !r.checkOps(err == nil && bad == 0 && routed == int64(count), int64(count)-routed+bad,
			"serve sweep %d: %d routed, %d invalid of %d: %v", i, routed, bad, count, err) {
			if err != nil {
				return err
			}
			continue
		}
		st.lookups += routed
		st.sweepRate = append(st.sweepRate, float64(routed)/secs)
		if i == 0 && r.opts.Seed == 1 && r.opts.Size.Reference {
			r.check(routed == reference.SweepRouted && digest == reference.SweepFNV,
				"serve sweep 0: %d routed, paths hash %s; reference %d, %s", routed, digest, reference.SweepRouted, reference.SweepFNV)
		}
	}
	return nil
}

// sweepOnce runs one generated-pair sweep and checks every routed pair
// against the daemon's pair stream, recomputed here. It returns the
// pairs routed, the routes missing or invalid, and the FNV-64a hash of
// every routed path in order.
func sweepOnce(ctx context.Context, cl *client.Client, env *serveEnv, p serve.SweepParams) (routed, bad int64, digest string, err error) {
	n := env.g.NumNodes()
	rng := xrand.NewPair(p.Seed, 0x73777065) // the daemon's stream
	h := fnv.New64a()
	var buf [4]byte
	_, done, err := cl.Sweep(ctx, env.key, p, func(ch serve.SweepChunk) error {
		for _, e := range ch.Entries {
			s := rng.IntN(n)
			t := rng.IntNExcept(n, s)
			if e.Route == nil || !validRoute(env.g, e.Route.Path, int32(s), int32(t)) {
				bad++
				continue
			}
			for _, v := range e.Route.Path {
				buf[0], buf[1], buf[2], buf[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
				h.Write(buf[:])
			}
		}
		return nil
	})
	return done.Routed, bad, fmt.Sprintf("%016x", h.Sum64()), err
}

// replay times the daemon's per-request stages in this process on the
// locally built DB, for the per-layer metrics: the first frames of the
// bulk phases' pair stream are decoded, looked up, chosen, observed and
// encoded through the same public calls the daemon makes, per codec.
func (r *run) replay(env *serveEnv, batch int) error {
	const frames = 64
	next := pairStream(r.opts.Seed, 0, env.g.NumNodes())
	reqs := make([]serve.Request, frames)
	for f := range reqs {
		pairs := make([][2]int32, batch)
		for j := range pairs {
			s, t := next()
			pairs[j] = [2]int32{s, t}
		}
		reqs[f] = serve.Request{V: serve.ProtocolVersion, ID: strconv.Itoa(f + 1), Op: serve.OpRoutesBatch, Topo: env.key, Pairs: pairs}
	}
	npairs := float64(frames * batch)

	// Lookup, then Choose + ObserveLink, then ObserveLink alone on the
	// chosen paths: Choose's cost is the difference of the last two.
	t0 := time.Now()
	for _, q := range reqs {
		for _, p := range q.Pairs {
			if _, err := env.db.Lookup(p[0], p[1]); err != nil {
				return fmt.Errorf("replay lookup: %w", err)
			}
		}
	}
	lookupNs := float64(time.Since(t0).Nanoseconds())
	view := &routing.View{Provider: env.db, NumNodes: env.g.NumNodes()}
	view.Prewarm()
	state := routing.KSPAdaptive().NewState()
	est := linkLoad()
	rng := seeds.StripeRNG(env.seed, env.g.Fingerprint(), 0)
	chosen := make([]graph.Path, 0, frames*batch)
	t0 = time.Now()
	for _, q := range reqs {
		for _, p := range q.Pairs {
			path, _ := state.Choose(view, p[0], p[1], est, rng)
			for i := 0; i+1 < len(path); i++ {
				est.ObserveLink(path[i], path[i+1])
			}
			chosen = append(chosen, path)
		}
	}
	chooseObserveNs := float64(time.Since(t0).Nanoseconds())
	est = linkLoad()
	t0 = time.Now()
	for _, path := range chosen {
		for i := 0; i+1 < len(path); i++ {
			est.ObserveLink(path[i], path[i+1])
		}
	}
	observeNs := float64(time.Since(t0).Nanoseconds())
	r.layer("paths.lookups", npairs)
	r.layer("paths.lookup_ns", lookupNs/npairs)
	r.layer("routing.choose_calls", npairs)
	r.layer("routing.choose_ns", (chooseObserveNs-observeNs)/npairs)
	r.layer("routing.observe_ns", observeNs/npairs)

	resps := make([]serve.Response, frames)
	for f, q := range reqs {
		out := serve.BatchResult{Entries: make([]serve.BatchEntry, len(q.Pairs)), Routed: len(q.Pairs)}
		for j := range q.Pairs {
			p := chosen[f*batch+j]
			out.Entries[j] = serve.BatchEntry{Route: &serve.RouteResult{Path: p, Index: 0, Hops: p.Hops()}}
		}
		resps[f] = serve.Response{V: serve.ProtocolVersion, ID: q.ID, OK: true, Batch: &out}
	}

	// Binary codec.
	var payloads [][]byte
	for f := range reqs {
		b, err := serve.AppendBinaryRequest(nil, uint64(f+1), &reqs[f])
		if err != nil {
			return err
		}
		payloads = append(payloads, b)
	}
	t0 = time.Now()
	for _, b := range payloads {
		if _, _, err := serve.DecodeBinaryRequest(b); err != nil {
			return fmt.Errorf("replay binary decode: %w", err)
		}
	}
	r.layer("serve.decode_ns.binary", float64(time.Since(t0).Nanoseconds())/npairs)
	var buf []byte
	t0 = time.Now()
	for f := range resps {
		var err error
		if buf, err = serve.AppendBinaryResponse(buf[:0], &resps[f]); err != nil {
			return fmt.Errorf("replay binary encode: %w", err)
		}
	}
	r.layer("serve.encode_ns.binary", float64(time.Since(t0).Nanoseconds())/npairs)

	// JSON codec.
	var lines [][]byte
	for f := range reqs {
		b, err := json.Marshal(&reqs[f])
		if err != nil {
			return err
		}
		lines = append(lines, b)
	}
	t0 = time.Now()
	for _, b := range lines {
		var q serve.Request
		if err := json.Unmarshal(b, &q); err != nil {
			return fmt.Errorf("replay json decode: %w", err)
		}
	}
	r.layer("serve.decode_ns.json", float64(time.Since(t0).Nanoseconds())/npairs)
	t0 = time.Now()
	for f := range resps {
		if _, err := json.Marshal(&resps[f]); err != nil {
			return fmt.Errorf("replay json encode: %w", err)
		}
	}
	r.layer("serve.encode_ns.json", float64(time.Since(t0).Nanoseconds())/npairs)
	return nil
}

// linkLoad is the estimator a daemon's routing stripe starts with.
func linkLoad() *routing.LinkLoadEstimator {
	est, _ := routing.EstimatorByName("link-load")
	return est.(*routing.LinkLoadEstimator)
}
