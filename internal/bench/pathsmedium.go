package bench

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/graph"
	"repro/internal/jellyfish"
	"repro/internal/ksp"
	"repro/internal/par"
	"repro/internal/paths"
	"repro/internal/seeds"
	"repro/internal/xrand"
)

// pathsSelectors are the two selection algorithms paths-medium compares:
// Yen's KSP and the Remove-Find rEDKSP, which share no search code past
// the shortest-path primitive.
var pathsSelectors = []ksp.Algorithm{ksp.KSP, ksp.REDKSP}

// pairKey is the per-pair seed word paths.DB reseeds its computer with
// (see paths.DB.computeWith), so a pair computed on its own reproduces
// the DB's stored set.
func pairKey(s, d graph.NodeID) uint64 { return uint64(uint32(s))<<32 | uint64(uint32(d)) }

// roundPairs is the pair sample of one paths-medium round.
func roundPairs(n int, seed uint64, round, count int) []paths.Pair {
	return paths.SamplePairs(n, count, xrand.NewPair(xrand.Mix64(seed^0x7061697273), uint64(round))) // "pairs"
}

// runPathsMedium measures path selection on RRG(720,24,19) in rounds. A
// round samples RoundPairs ordered pairs and, for each selector, builds
// their path sets with paths.Build, writes the DB to a JFPC cache file,
// reads it back, and prints the Table II-IV row from paths.AnalyzeDB;
// SerialPairs of the pairs are then selected again one at a time through
// ksp.Computer, which times single selections and checks them against
// the parallel build. The operation is one pair selection: throughput is
// pairs selected per second of paths.Build (both selectors), its median
// over rounds; latency is the median over serial pairs of the time both
// selectors took for the pair (one selector's times alone would put the
// median between the two selectors' clusters).
func runPathsMedium(r *run) error {
	size := r.opts.Size
	var topo *jellyfish.Topology
	var m graph.Metrics
	if err := r.setUp(func(sp *span) (err error) {
		js := r.tr.start(sp, "jellyfish.New")
		topo, err = jellyfish.New(jellyfish.Medium, seeds.TopoRNG(r.opts.Seed, 0))
		js.end()
		if err != nil {
			return err
		}
		ms := r.tr.start(sp, "graph.ComputeMetrics")
		m = graph.ComputeMetrics(topo.G, 0)
		ms.end()
		return nil
	}); err != nil {
		return err
	}
	g := topo.G
	r.logf("paths-medium: RRG%v seed %d (diameter %d, avg shortest path %.4f), %d pairs per round and selector; setup %.4fs",
		[]int{topo.N, topo.X, topo.Y}, r.opts.Seed, m.Diameter, m.AvgShortestPath, size.RoundPairs, r.res.EndToEnd["setup_s"])

	dir, err := os.MkdirTemp("", "jfbench-paths-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	var dbs []*paths.DB         // the last round's, live when memory is measured
	var rates, serial []float64 // serial: both selectors' time per pair
	var bytesPerPair float64
	serialBy := map[ksp.Algorithm][]float64{}
	workers := par.DefaultWorkers()
	r.openWindow()
	for round := 0; r.measuring(); round++ {
		pairs := roundPairs(g.NumNodes(), r.opts.Seed, round, size.RoundPairs)
		rs := r.tr.start(r.root, "paths.round")
		var buildSecs float64
		serialPair := make([]float64, min(size.SerialPairs, len(pairs)))
		dbs = dbs[:0]
		for _, alg := range pathsSelectors {
			cfg := ksp.Config{Alg: alg, K: 8}
			seed := seeds.PathSeed(r.opts.Seed, 0, alg)
			sp := r.tr.start(rs, "paths.Build")
			sp.set("alg", float64(alg))
			db := paths.Build(g, cfg, seed, pairs, workers)
			sp.set("fallbacks", float64(db.Fallbacks()))
			buildSecs += sp.end().Seconds()
			dbs = append(dbs, db)
			r.attempt(int64(len(pairs)), 0)
			for _, p := range pairs {
				ps := db.Paths(p.Src, p.Dst)
				ok := len(ps) > 0
				for _, path := range ps {
					ok = ok && validRoute(g, path, p.Src, p.Dst)
				}
				r.check(ok, "paths-medium %s %d->%d: invalid path set %v", alg, p.Src, p.Dst, ps)
			}

			q, err := r.cacheLeg(rs, dir, db, g, cfg, seed, pairs, alg)
			if err != nil {
				return err
			}
			row := qualityRow{q.Pairs, q.AvgLen, q.DisjointFraction, q.MaxShare, q.AvgPaths, q.Fallbacks}
			r.logf("paths-medium: round %d %-7s avg len %.4f  disjoint %.2f%%  max share %d  fallbacks %d",
				round, alg, q.AvgLen, 100*q.DisjointFraction, q.MaxShare, q.Fallbacks)
			if round == 0 && r.opts.Seed == 1 && size.Reference {
				want, ok := reference.PathsRound0[alg.String()]
				r.check(ok && row == want, "paths-medium round 0 %s: row %+v, reference %+v", alg, row, want)
			}

			c := ksp.NewComputer(g, cfg, xrand.New(seed))
			ks := r.tr.start(rs, "ksp.Computer")
			ks.set("alg", float64(alg))
			for i, p := range pairs[:len(serialPair)] {
				t0 := time.Now()
				c.Reseed(seed, pairKey(p.Src, p.Dst))
				ps := c.Paths(p.Src, p.Dst)
				us := float64(time.Since(t0).Nanoseconds()) / 1e3
				serialPair[i] += us
				serialBy[alg] = append(serialBy[alg], us)
				r.attempt(1, 0)
				r.check(samePaths(ps, db.Paths(p.Src, p.Dst)), "paths-medium %s %d->%d: serial selection differs from paths.Build", alg, p.Src, p.Dst)
			}
			ks.set("fallbacks", float64(c.Fallbacks()))
			ks.end()
			if st, ok := db.StoreStats(); ok && st.Pairs > 0 {
				bytesPerPair = float64(st.TotalBytes) / float64(st.Pairs)
			}
		}
		rs.end()
		rates = append(rates, float64(len(pairs)*len(pathsSelectors))/buildSecs)
		serial = append(serial, serialPair...)
	}
	r.e2e("throughput", Median(rates))
	r.e2e("latency_p50_us", Median(serial))
	r.e2e("memory_mb", liveHeapMiB())
	runtime.KeepAlive(dbs)
	runtime.KeepAlive(g)
	r.logf("paths-medium: %d rounds; %.0f pairs/s in paths.Build (median round); serial selection of a pair by both selectors %s",
		len(rates), Median(rates), latencySummary(serial))

	if r.opts.Trace {
		r.pathsLayers(serialBy, workers)
		r.layer("paths.bytes_per_pair", bytesPerPair)
	}
	return nil
}

// cacheLeg writes db to a JFPC file, reads it back, checks the round trip
// is lossless and analyzes the loaded DB.
func (r *run) cacheLeg(parent *span, dir string, db *paths.DB, g *graph.Graph, cfg ksp.Config, seed uint64, pairs []paths.Pair, alg ksp.Algorithm) (paths.Quality, error) {
	key := paths.CacheKey(g, cfg, seed, pairs)
	file := filepath.Join(dir, paths.CacheFileName(key))
	sp := r.tr.start(parent, "paths.WriteCache")
	n, err := writeCacheFile(file, db, key)
	if err != nil {
		return paths.Quality{}, err
	}
	sp.set("bytes", float64(n))
	sp.end()

	sp = r.tr.start(parent, "paths.ReadCache")
	f, err := os.Open(file)
	if err != nil {
		return paths.Quality{}, err
	}
	loaded, gotKey, err := paths.ReadCache(bufio.NewReader(f), g)
	f.Close()
	sp.end()
	if !r.check(err == nil && gotKey == key, "paths-medium %s: cache read back key %x (want %x): %v", alg, gotKey, key, err) {
		return paths.Quality{}, nil
	}
	var a, b bytes.Buffer
	if err := db.Write(&a); err != nil {
		return paths.Quality{}, err
	}
	if err := loaded.Write(&b); err != nil {
		return paths.Quality{}, err
	}
	r.check(bytes.Equal(a.Bytes(), b.Bytes()), "paths-medium %s: DB read back from the cache serializes differently", alg)

	sp = r.tr.start(parent, "paths.AnalyzeDB")
	q := paths.AnalyzeDB(loaded, pairs, 0)
	sp.end()
	return q, nil
}

// writeCacheFile writes db's JFPC encoding to file and returns its size.
func writeCacheFile(file string, db *paths.DB, key uint64) (int64, error) {
	f, err := os.Create(file)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	if err := db.WriteCache(w, key); err != nil {
		f.Close()
		return 0, fmt.Errorf("write %s: %w", file, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, fmt.Errorf("write %s: %w", file, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return 0, err
	}
	return st.Size(), f.Close()
}

// pathsLayers reports paths-medium's per-layer metrics: medians per
// set-up or round of each layer's time, serial selection latencies per
// selector, and the parallel efficiency of paths.Build against serial
// selection.
func (r *run) pathsLayers(serialBy map[ksp.Algorithm][]float64, workers int) {
	spans := r.tr.Spans()
	r.checkFrac(spans, "paths.round")
	r.layer("jellyfish.build_s", perParentMedian(spans, "jellyfish.New", spanSeconds))
	r.layer("graph.metrics_s", perParentMedian(spans, "graph.ComputeMetrics", spanSeconds))
	r.layer("paths.build_s", perParentMedian(spans, "paths.Build", spanSeconds))
	for _, alg := range pathsSelectors {
		r.layer("paths.build_s."+alg.String(), perParentMedian(spans, "paths.Build", func(s Span) float64 {
			if ksp.Algorithm(s.Attrs["alg"]) != alg {
				return 0
			}
			return spanSeconds(s)
		}))
	}
	r.layer("paths.cache_write_s", perParentMedian(spans, "paths.WriteCache", spanSeconds))
	r.layer("paths.cache_bytes", perParentMedian(spans, "paths.WriteCache", func(s Span) float64 { return s.Attrs["bytes"] }))
	r.layer("paths.cache_read_s", perParentMedian(spans, "paths.ReadCache", spanSeconds))
	r.layer("paths.analyze_s", perParentMedian(spans, "paths.AnalyzeDB", spanSeconds))
	var fallbacks float64
	for _, s := range spans {
		if s.Name == "paths.Build" && ksp.Algorithm(s.Attrs["alg"]) == ksp.REDKSP {
			fallbacks += s.Attrs["fallbacks"]
		}
	}
	r.layer("ksp.fallbacks.rEDKSP", fallbacks)
	var serialUs float64 // mean serial selection time, summed over selectors
	for _, alg := range pathsSelectors {
		v := serialBy[alg]
		r.layer("ksp.paths_us_p50."+alg.String(), Median(v))
		r.layer("ksp.paths_us_p99."+alg.String(), tailOrMax(v, 99))
		var sum float64
		for _, x := range v {
			sum += x
		}
		if len(v) > 0 {
			serialUs += sum / float64(len(v))
		}
	}
	// Parallel efficiency: the time serial selection would need for a
	// round's pairs, over the worker-seconds paths.Build took for them.
	if b := r.res.PerLayer["paths.build_s"]; b > 0 {
		r.layer("paths.parallel_eff", serialUs/1e6*float64(r.opts.Size.RoundPairs)/(float64(workers)*b))
	}
}

// tailOrMax returns the p-th percentile when at least ten samples lie
// beyond it, else the largest sample (an upper bound on it).
func tailOrMax(v []float64, p float64) float64 {
	if float64(len(v))*(1-p/100) >= 10-1e-9 {
		return Percentile(v, p)
	}
	return Percentile(v, 100)
}
