package bench

import (
	"runtime"
	"time"

	"repro/internal/appsim"
	"repro/internal/graph"
	"repro/internal/jellyfish"
	"repro/internal/ksp"
	"repro/internal/paths"
	"repro/internal/routing"
	"repro/internal/seeds"
	"repro/internal/traffic"
	"repro/internal/xrand"
)

// tableVSelectors is Table V's column order, as in exp.AppCommTimes.
var tableVSelectors = []ksp.Algorithm{ksp.REDKSP, ksp.KSP, ksp.RKSP}

// tableV is the Table V pipeline on one topology sample, composed from the
// same calls and seed derivations as exp.AppCommTimes with the linear
// mapping and KSP-adaptive: jellyfish.New → graph.ComputeMetrics → one
// eager path DB per selector → one stencil workload per kind → one
// appsim.Run per (stencil, selector).
type tableV struct {
	topo    *jellyfish.Topology
	seed    uint64
	dbs     []*paths.DB
	kinds   []traffic.StencilKind
	flows   [][]traffic.SizedFlow
	packets []int64 // packets each stencil's flows carry
}

func newTableV(tr *tracer, parent *span, p jellyfish.Params, seed uint64, stencils []traffic.StencilKind, bytesPerRank int64) (*tableV, error) {
	sp := tr.start(parent, "jellyfish.New")
	topo, err := jellyfish.New(p, seeds.TopoRNG(seed, 0))
	sp.end()
	if err != nil {
		return nil, err
	}
	t := &tableV{topo: topo, seed: seed, kinds: stencils}
	sp = tr.start(parent, "graph.ComputeMetrics")
	graph.ComputeMetrics(topo.G, 0)
	sp.end()
	for _, alg := range tableVSelectors {
		sp = tr.start(parent, "paths.BuildAllPairs")
		t.dbs = append(t.dbs, paths.BuildAllPairs(topo.G, ksp.Config{Alg: alg, K: 8}, seeds.PathSeed(seed, 0, alg), 0))
		sp.end()
	}
	n := topo.NumTerminals()
	for _, kind := range stencils {
		sp = tr.start(parent, "traffic.Stencil")
		flows := traffic.Stencil(traffic.StencilConfig{Kind: kind, Ranks: n, TotalBytes: bytesPerRank}).
			Apply(traffic.LinearMapping(n))
		sp.end()
		var pkts int64
		for _, f := range flows {
			if f.Src != f.Dst && f.Bytes > 0 {
				pkts += (f.Bytes + appsim.DefaultPacketBytes - 1) / appsim.DefaultPacketBytes
			}
		}
		t.flows = append(t.flows, flows)
		t.packets = append(t.packets, pkts)
	}
	return t, nil
}

// config is the replay of stencil si under selector ai.
func (t *tableV) config(si, ai int) appsim.Config {
	return appsim.Config{
		Topo:      t.topo,
		Paths:     t.dbs[ai],
		Mechanism: routing.KSPAdaptive(),
		Flows:     t.flows[si],
		Seed:      xrand.Mix64(t.seed ^ uint64(si)<<24 ^ uint64(ai)),
	}
}

// runTableV measures the Table V replays one after another, as
// exp.AppCommTimes runs them, cycling through the table until the window
// closes and the table has been completed once. The operation is one
// replay: throughput is simulated packets per host second of a replay, its
// median over the run's replays; latency is the median replay of the
// first, complete pass, so every run times the same twelve cells.
func runTableV(r *run) error {
	size := r.opts.Size
	var t *tableV
	if err := r.setUp(func(sp *span) (err error) {
		t, err = newTableV(r.tr, sp, jellyfish.Small, r.opts.Seed, size.Stencils, size.BytesPerRank)
		return err
	}); err != nil {
		return err
	}
	r.logf("tablev: RRG%v seed %d, %d stencils x %d selectors, %d bytes per rank; setup %.4fs",
		[]int{t.topo.N, t.topo.X, t.topo.Y}, r.opts.Seed, len(t.flows), len(tableVSelectors),
		size.BytesPerRank, r.res.EndToEnd["setup_s"])

	var ref []int64
	if r.opts.Seed == 1 && size.Reference {
		ref = reference.TableVCycles
	}
	var rates, times []float64
	pass := len(t.flows) * len(tableVSelectors)
	r.openWindow()
	for n := 0; n < pass || r.measuring(); n++ {
		si, ai := (n/len(tableVSelectors))%len(t.flows), n%len(tableVSelectors)
		c := t.config(si, ai)
		var lc layerCalls
		mech, prov := lc.wrap(r.opts.Trace, c.Mechanism, c.Paths)
		c.Mechanism, c.Paths = mech, prov
		us := r.tr.start(r.root, "tablev.replay")
		sp := r.tr.start(us, "appsim.Run")
		t0 := time.Now()
		res, err := appsim.Run(c)
		d := time.Since(t0)
		sp.set("cycles", float64(res.Cycles))
		sp.set("packets", float64(res.Packets))
		sp.set("choose_calls", float64(lc.choose.calls))
		sp.set("choose_ns", lc.choose.estNs(r.clockNs))
		sp.set("lookup_calls", float64(lc.lookup.calls))
		sp.set("lookup_ns", lc.lookup.estNs(r.clockNs))
		sp.end()
		r.attempt(1, lc.choose.calls+lc.lookup.calls)
		name := t.kinds[si].String() + "/" + tableVSelectors[ai].String()
		ok := r.check(err == nil, "tablev %s: %v", name, err) &&
			r.check(res.Packets == t.packets[si] && res.Dropped == 0,
				"tablev %s: delivered %d of %d packets (dropped %d)", name, res.Packets, t.packets[si], res.Dropped)
		if ok && ref != nil {
			r.check(res.Cycles == ref[si*len(tableVSelectors)+ai],
				"tablev %s: %d cycles, reference %d", name, res.Cycles, ref[si*len(tableVSelectors)+ai])
		}
		us.end()
		if !ok {
			continue
		}
		if n < pass {
			r.logf("tablev: %-24s %10d cycles %8.2f ms simulated  %.2fs host", name, res.Cycles, res.Seconds*1e3, d.Seconds())
			times = append(times, float64(d.Nanoseconds())/1e3)
		}
		rates = append(rates, float64(res.Packets)/d.Seconds())
	}
	r.e2e("throughput", Median(rates))
	r.e2e("latency_p50_us", Median(times))
	r.e2e("memory_mb", liveHeapMiB())
	runtime.KeepAlive(t)
	r.logf("tablev: %d replays; %.0f simulated packets/s (median replay); first-pass replay time %s",
		len(rates), Median(rates), latencySummary(times))

	if r.opts.Trace {
		spans := r.tr.Spans()
		r.setupLayers(spans)
		r.simLayers(spans, "appsim")
		r.checkFrac(spans, "tablev.replay")
		r.layer("traffic.stencil_s", perParentMedian(spans, "traffic.Stencil", spanSeconds))
		st, _ := t.dbs[0].StoreStats()
		r.layer("paths.bytes_per_pair", float64(st.TotalBytes)/float64(st.Pairs))
	}
	return nil
}
