package bench

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/flitsim"
	"repro/internal/graph"
	"repro/internal/jellyfish"
	"repro/internal/ksp"
	"repro/internal/par"
	"repro/internal/paths"
	"repro/internal/routing"
	"repro/internal/seeds"
	"repro/internal/traffic"
	"repro/internal/xrand"
)

// fig9Job is one job of exp.FlitSaturation: the saturation search of one
// selector (ai, into ksp.Algorithms) under one mechanism (mi, into
// routing.Mechanisms) on one random-shift pattern sample (pi).
type fig9Job struct{ pi, ai, mi int }

var fig9Mechs = routing.Mechanisms()

// index is the job's position in exp.FlitSaturation's enumeration (one
// topology sample), from which its simulator seed derives.
func (j fig9Job) index() int {
	return (j.pi*len(ksp.Algorithms)+j.ai)*len(fig9Mechs) + j.mi
}

// fig9Order maps the n-th job run to a job so that any run of consecutive
// jobs spreads over every selector, mechanism and pattern sample: the
// (selector, mechanism) cell cycles through all 20 combinations (4 and 5
// are coprime) while the pattern advances with every job. A short run
// therefore measures a mix of the whole figure, not its first rows.
func fig9Order(n, patterns int) fig9Job {
	cells := len(ksp.Algorithms) * len(fig9Mechs)
	return fig9Job{
		pi: (n/cells + n) % patterns,
		ai: n % len(ksp.Algorithms),
		mi: n % len(fig9Mechs),
	}
}

// fig9 is the Figure 9 pipeline on one topology sample, composed from the
// same calls and seed derivations as exp.FlitSaturation with the "shift"
// pattern: jellyfish.New → graph.ComputeMetrics → one eager path DB per
// selector → one flitsim run per (job, rate).
type fig9 struct {
	topo     *jellyfish.Topology
	seed     uint64
	numVCs   int
	dbs      []*paths.DB
	samplers []traffic.Sampler
	rates    []float64
}

// newFig9 builds the pipeline's shared state, timing each layer call as a
// child span of parent.
func newFig9(tr *tracer, parent *span, p jellyfish.Params, seed uint64, patterns int, rates []float64) (*fig9, error) {
	sp := tr.start(parent, "jellyfish.New")
	topo, err := jellyfish.New(p, seeds.TopoRNG(seed, 0))
	sp.end()
	if err != nil {
		return nil, err
	}
	f := &fig9{topo: topo, seed: seed, rates: rates}
	sp = tr.start(parent, "graph.ComputeMetrics")
	m := graph.ComputeMetrics(topo.G, 0)
	sp.end()
	f.numVCs = 3*int(m.Diameter) + 2
	for _, alg := range ksp.Algorithms {
		sp = tr.start(parent, "paths.BuildAllPairs")
		f.dbs = append(f.dbs, paths.BuildAllPairs(topo.G, ksp.Config{Alg: alg, K: 8}, seeds.PathSeed(seed, 0, alg), 0))
		sp.end()
	}
	for pi := 0; pi < patterns; pi++ {
		rng := xrand.NewPair(xrand.Mix64(seed^0x706174), uint64(pi)) // exp's pattern derivation
		f.samplers = append(f.samplers, traffic.NewFixedSampler(traffic.RandomShift(topo.NumTerminals(), rng)))
	}
	return f, nil
}

// saturation runs job's search the way exp.FlitSaturation does: rates in
// ascending order, stopping at the first saturated run, returning the
// last unsaturated rate. point runs one configured rate; when it returns
// false the search is abandoned and complete is false.
func (f *fig9) saturation(job fig9Job, point func(c flitsim.Config) (flitsim.Result, bool)) (sat float64, complete bool) {
	base := flitsim.Config{
		Topo:      f.topo,
		Paths:     f.dbs[job.ai],
		Mechanism: fig9Mechs[job.mi],
		Traffic:   f.samplers[job.pi],
		NumVCs:    f.numVCs,
		Seed:      xrand.Mix64(f.seed ^ uint64(job.index())<<16),
	}
	for ri, rate := range f.rates {
		c := base
		c.InjectionRate = rate
		c.Seed = xrand.Mix64(base.Seed ^ uint64(ri+1)*0x9e3779b97f4a7c15)
		res, ok := point(c)
		if !ok {
			return sat, false
		}
		if res.Saturated {
			return sat, true
		}
		sat = rate
	}
	return sat, true
}

// runFig9 measures the Figure 9 pipeline: jobs in fig9Order, two at a
// time through par.For, every rate point one flitsim.New + Run. The
// operation is one rate point; throughput is simulated packets per host
// second of a point, its median over the run's points.
func runFig9(r *run) error {
	size := r.opts.Size
	var f *fig9
	if err := r.setUp(func(sp *span) (err error) {
		f, err = newFig9(r.tr, sp, jellyfish.Small, r.opts.Seed, size.PatternSamples, size.FlitRates)
		return err
	}); err != nil {
		return err
	}
	r.logf("fig9: RRG%v seed %d, %d selectors x %d mechanisms x %d patterns, %d rates; setup %.4fs",
		[]int{f.topo.N, f.topo.X, f.topo.Y}, r.opts.Seed, len(ksp.Algorithms), len(fig9Mechs),
		size.PatternSamples, len(size.FlitRates), r.res.EndToEnd["setup_s"])

	var ref []float64
	if r.opts.Seed == 1 && size.Reference {
		ref = reference.Fig9Saturation
	}
	type point struct {
		secs    float64
		packets int64
	}
	var mu sync.Mutex // guards points and cellsDone
	var points []point
	cellsDone := 0
	cellsPerWave := len(ksp.Algorithms) * len(fig9Mechs)
	workers := par.DefaultWorkers()
	r.openWindow()
	for wave := 0; r.measuring(); wave++ {
		ws := r.tr.start(r.root, "par.For")
		par.For(cellsPerWave, workers, func(k int) {
			job := fig9Order(wave*cellsPerWave+k, size.PatternSamples)
			cs := r.tr.start(ws, "fig9.cell")
			sat, complete := f.saturation(job, func(c flitsim.Config) (flitsim.Result, bool) {
				if !r.measuring() {
					return flitsim.Result{}, false
				}
				var lc layerCalls
				mech, prov := lc.wrap(r.opts.Trace, c.Mechanism, c.Paths)
				c.Mechanism, c.Paths = mech, prov
				t0 := time.Now()
				ns := r.tr.start(cs, "flitsim.New")
				sim := flitsim.New(c)
				ns.end()
				rs := r.tr.start(cs, "flitsim.Run")
				res := sim.Run()
				runDur := time.Since(t0)
				rs.set("cycles", float64(sim.Clock()))
				rs.set("packets", float64(res.Injected))
				if res.Saturated {
					rs.set("saturated", 1)
				}
				rs.set("choose_calls", float64(lc.choose.calls))
				rs.set("choose_ns", lc.choose.estNs(r.clockNs))
				rs.set("lookup_calls", float64(lc.lookup.calls))
				rs.set("lookup_ns", lc.lookup.estNs(r.clockNs))
				rs.end()

				r.attempt(1, lc.choose.calls+lc.lookup.calls)
				mu.Lock()
				points = append(points, point{runDur.Seconds(), res.Injected})
				mu.Unlock()
				queued := sim.QueuedPackets()
				r.check(res.Injected == res.Delivered+res.InFlight && res.Dropped == 0 && queued == res.InFlight,
					"fig9 job %d rate %.2f: injected %d != delivered %d + in flight %d (dropped %d, queued %d)",
					job.index(), c.InjectionRate, res.Injected, res.Delivered, res.InFlight, res.Dropped, queued)
				return res, true
			})
			cs.set("job", float64(job.index()))
			cs.end()
			if !complete {
				return
			}
			mu.Lock()
			cellsDone++
			mu.Unlock()
			if ref != nil {
				r.check(sat == ref[job.index()], "fig9 job %d (pattern %d, %s, %s): saturation %.2f, reference %.2f",
					job.index(), job.pi, ksp.Algorithms[job.ai], fig9Mechs[job.mi].Name(), sat, ref[job.index()])
			}
		})
		ws.end()
	}

	rates := make([]float64, len(points))
	times := make([]float64, len(points))
	for i, p := range points {
		rates[i] = float64(p.packets) / p.secs
		times[i] = p.secs * 1e6
	}
	r.e2e("throughput", Median(rates))
	r.e2e("latency_p50_us", Median(times))
	r.e2e("memory_mb", liveHeapMiB())
	runtime.KeepAlive(f)
	r.logf("fig9: %d complete cells; %.0f simulated packets/s (median point); point time %s",
		cellsDone, Median(rates), latencySummary(times))

	if r.opts.Trace {
		spans := r.tr.Spans()
		r.setupLayers(spans)
		r.simLayers(spans, "flitsim")
		r.checkFrac(spans, "fig9.cell")
		var cellNs, waveNs int64
		for _, s := range spans {
			switch s.Name {
			case "fig9.cell":
				cellNs += s.End - s.Start
			case "par.For":
				waveNs += s.End - s.Start
			}
		}
		if waveNs > 0 {
			r.layer("par.busy_frac", float64(cellNs)/float64(int64(workers)*waveNs))
		}
		st, _ := f.dbs[len(f.dbs)-1].StoreStats()
		r.layer("paths.bytes_per_pair", float64(st.TotalBytes)/float64(st.Pairs))
	}
	return nil
}

// checkFrac reports the share of the unit spans' time (one cell, replay or
// round) spent outside the layer calls they contain: jfbench's own checks
// and bookkeeping, which dilute the measurement window.
func (r *run) checkFrac(spans []Span, unit string) {
	self := SelfTimes(spans)
	var own, total int64
	for _, s := range spans {
		if s.Name == unit {
			own += self[s.ID]
			total += s.End - s.Start
		}
	}
	if total > 0 {
		r.layer("jfbench.check_frac", float64(own)/float64(total))
	}
}

// setupLayers reports the medians, over the run's set-ups, of the time
// each set-up spent building the topology, its metrics and its path DBs.
func (r *run) setupLayers(spans []Span) {
	r.layer("jellyfish.build_s", perParentMedian(spans, "jellyfish.New", spanSeconds))
	r.layer("graph.metrics_s", perParentMedian(spans, "graph.ComputeMetrics", spanSeconds))
	r.layer("paths.build_s", perParentMedian(spans, "paths.BuildAllPairs", spanSeconds))
}

// perParentMedian sums value over the spans named name under each parent
// (one set-up, one round) and returns the median of those sums.
func perParentMedian(spans []Span, name string, value func(Span) float64) float64 {
	per := map[uint64]float64{}
	for _, s := range spans {
		if s.Name == name {
			per[s.Parent] += value(s)
		}
	}
	v := make([]float64, 0, len(per))
	for _, x := range per {
		v = append(v, x)
	}
	return Median(v)
}

func spanSeconds(s Span) float64 { return float64(s.End-s.Start) / 1e9 }

// simLayers reports the routing, path-lookup and simulator-core layers of
// the "<sim>.Run" spans (flitsim or appsim): counts, the estimated time in
// Choose and in candidate lookups, and the simulator's own time — the run
// minus the Choose calls it made (which include the lookups).
func (r *run) simLayers(spans []Span, sim string) {
	var runs, saturated, cycles, packets, chooseCalls, lookupCalls float64
	var runNs, chooseNs, lookupNs, newNs float64
	for _, s := range spans {
		switch s.Name {
		case sim + ".Run":
			runs++
			runNs += float64(s.End - s.Start)
			saturated += s.Attrs["saturated"]
			cycles += s.Attrs["cycles"]
			packets += s.Attrs["packets"]
			chooseCalls += s.Attrs["choose_calls"]
			chooseNs += s.Attrs["choose_ns"]
			lookupCalls += s.Attrs["lookup_calls"]
			lookupNs += s.Attrs["lookup_ns"]
		case sim + ".New":
			newNs += float64(s.End - s.Start)
		}
	}
	self := runNs - chooseNs
	r.layer(sim+".runs", runs)
	r.layer(sim+".sim_cycles", cycles)
	r.layer(sim+".packets", packets)
	r.layer(sim+".run_self_s", self/1e9)
	if sim == "flitsim" {
		r.layer("flitsim.saturated_runs", saturated)
		r.layer("flitsim.new_s", newNs/1e9)
		if cycles > 0 {
			r.layer("flitsim.ns_per_cycle", self/cycles)
		}
	}
	if packets > 0 {
		r.layer(sim+".ns_per_packet", self/packets)
	}
	r.layer("routing.choose_calls", chooseCalls)
	r.layer("paths.lookups", lookupCalls)
	if chooseCalls > 0 {
		r.layer("routing.choose_ns", (chooseNs-lookupNs)/chooseCalls)
	}
	if lookupCalls > 0 {
		r.layer("paths.lookup_ns", lookupNs/lookupCalls)
	}
	if runNs > 0 {
		r.layer("routing.choose_share", chooseNs/runNs)
	}
}
