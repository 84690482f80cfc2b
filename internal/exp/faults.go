package exp

import (
	"fmt"
	"slices"

	"repro/internal/faults"
	"repro/internal/flitsim"
	"repro/internal/graph"
	"repro/internal/jellyfish"
	"repro/internal/ksp"
	"repro/internal/par"
	"repro/internal/paths"
	"repro/internal/routing"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// FaultResilienceResult quantifies the reliability benefit of disjoint
// paths that motivates the Remove-Find literature the paper builds on:
// after failing random links, what fraction of switch pairs still has at
// least one usable precomputed path (without recomputing routes)?
//
// Survive[f][selector] is that fraction at FailedLinks[f] failures,
// averaged over trials. Edge-disjoint selectors degrade gracefully — one
// link failure kills at most one of the k paths — while vanilla KSP's
// clustered paths can lose most of the set to a single failure.
type FaultResilienceResult struct {
	Params      jellyfish.Params
	K           int
	FailedLinks []int
	Trials      int
	Selectors   []string
	Survive     [][]float64
	// MeanSurvivingPaths[f][selector] is the mean number of intact paths
	// per pair.
	MeanSurvivingPaths [][]float64
}

// FaultResilience runs the study on one topology instance. Pairs are
// sampled with Scale.PairSample (0 = all ordered pairs); trials =
// Scale.PatternSamples random failure sets per failure count.
func FaultResilience(params jellyfish.Params, failedLinks []int, sc Scale) (*FaultResilienceResult, error) {
	sc, err := sc.withDefaults()
	if err != nil {
		return nil, err
	}
	topo, err := sc.buildTopo(params, 0)
	if err != nil {
		return nil, err
	}
	nEdges := topo.G.NumEdges()
	for _, f := range failedLinks {
		if f < 0 || f > nEdges {
			return nil, fmt.Errorf("exp: failed-link count %d out of range [0, %d]", f, nEdges)
		}
	}
	var prs []paths.Pair
	if sc.PairSample > 0 {
		prs = paths.SamplePairs(params.N, sc.PairSample, xrand.New(sc.Seed^0xfa17))
	} else {
		prs = paths.AllOrderedPairs(params.N)
	}
	res := &FaultResilienceResult{
		Params:      params,
		K:           sc.K,
		FailedLinks: failedLinks,
		Trials:      sc.PatternSamples,
		Selectors:   SelectorNames(false),
	}
	// Precompute all path sets once per selector.
	dbs := make([]*paths.DB, len(ksp.Algorithms))
	for ai, alg := range ksp.Algorithms {
		if dbs[ai], err = sc.pathDBPairs(topo, alg, 0, prs); err != nil {
			return nil, err
		}
	}
	res.Survive = make([][]float64, len(failedLinks))
	res.MeanSurvivingPaths = make([][]float64, len(failedLinks))
	for fi, f := range failedLinks {
		res.Survive[fi] = make([]float64, len(ksp.Algorithms))
		res.MeanSurvivingPaths[fi] = make([]float64, len(ksp.Algorithms))
		for trial := 0; trial < sc.Trials(); trial++ {
			failed := failureSet(topo, f, xrand.NewPair(sc.Seed^uint64(fi)<<32, uint64(trial)))
			for ai := range ksp.Algorithms {
				alive, meanPaths := survival(dbs[ai], prs, failed, sc.Workers)
				res.Survive[fi][ai] += alive
				res.MeanSurvivingPaths[fi][ai] += meanPaths
			}
		}
		for ai := range ksp.Algorithms {
			res.Survive[fi][ai] /= float64(sc.Trials())
			res.MeanSurvivingPaths[fi][ai] /= float64(sc.Trials())
		}
	}
	return res, nil
}

// Trials aliases PatternSamples for readability in fault studies.
func (sc Scale) Trials() int { return sc.PatternSamples }

// failureSet picks f distinct undirected edges to fail.
func failureSet(topo *jellyfish.Topology, f int, rng *xrand.RNG) map[uint64]struct{} {
	g := topo.G
	// Enumerate undirected edges once.
	edges := make([][2]graph.NodeID, 0, g.NumEdges())
	for u := graph.NodeID(0); int(u) < g.NumNodes(); u++ {
		for _, v := range g.Neighbors(u) {
			if u < v {
				edges = append(edges, [2]graph.NodeID{u, v})
			}
		}
	}
	failed := make(map[uint64]struct{}, f)
	for _, idx := range rng.SampleK(len(edges), f) {
		e := edges[idx]
		failed[graph.UndirectedEdgeKey(e[0], e[1])] = struct{}{}
	}
	return failed
}

// survival returns (fraction of pairs with >= 1 intact path, mean intact
// paths per pair) under the failure set.
func survival(db *paths.DB, prs []paths.Pair, failed map[uint64]struct{}, workers int) (float64, float64) {
	aliveCnt := make([]int32, len(prs))
	pathCnt := make([]int32, len(prs))
	par.For(len(prs), workers, func(i int) {
		ps := db.Paths(prs[i].Src, prs[i].Dst)
		intact := int32(0)
		for _, p := range ps {
			ok := true
			for h := 0; h+1 < len(p); h++ {
				if _, dead := failed[graph.UndirectedEdgeKey(p[h], p[h+1])]; dead {
					ok = false
					break
				}
			}
			if ok {
				intact++
			}
		}
		pathCnt[i] = intact
		if intact > 0 {
			aliveCnt[i] = 1
		}
	})
	var alive, total int64
	for i := range prs {
		alive += int64(aliveCnt[i])
		total += int64(pathCnt[i])
	}
	return float64(alive) / float64(len(prs)), float64(total) / float64(len(prs))
}

// Table renders the survival fractions.
func (r *FaultResilienceResult) Table(title string) *stats.Table {
	headers := append([]string{"Failed links"}, r.Selectors...)
	t := stats.NewTable(title, headers...)
	for fi, f := range r.FailedLinks {
		row := []string{fmt.Sprintf("%d", f)}
		for ai := range r.Selectors {
			row = append(row, fmt.Sprintf("%.3f", r.Survive[fi][ai]))
		}
		t.AddRow(row...)
	}
	return t
}

// FaultRunConfig parameterizes the dynamic fault-injection experiment: a
// flit-level run in which a random set of links fails at cycle 1000, after
// the warmup and the first measurement window, and the routing mechanisms
// degrade (or not) live.
type FaultRunConfig struct {
	Params jellyfish.Params
	// Pattern is "permutation", "shift" or "uniform" (default "uniform").
	Pattern string
	// FailedLinks is the sweep of failure counts (default {0, 1, 2, 4, 8});
	// 0 is the fault-free baseline.
	FailedLinks []int
	// InjectionRate is the offered load (default 0.3).
	InjectionRate float64
	// Policy is the fault policy applied to caught packets (zero value:
	// reroute with path repair).
	Policy faults.Policy
}

func (c FaultRunConfig) withDefaults() FaultRunConfig {
	if c.Pattern == "" {
		c.Pattern = "uniform"
	}
	if len(c.FailedLinks) == 0 {
		c.FailedLinks = []int{0, 1, 2, 4, 8}
	}
	if c.InjectionRate == 0 {
		c.InjectionRate = 0.3
	}
	return c
}

// FaultRunResult holds delivered throughput versus failed-link count for
// every (selector, mechanism) combination.
type FaultRunResult struct {
	Config      FaultRunConfig
	Selectors   []string
	Mechanisms  []string
	FailedLinks []int
	// Delivered[f][selector][mechanism] is the mean delivered throughput
	// (fraction of terminal capacity over the measurement phase) at
	// FailedLinks[f] failures, averaged over topology and pattern samples.
	Delivered [][][]float64
	// Dropped[f][selector][mechanism] is the mean packets dropped per run.
	Dropped [][][]float64
}

// FaultRun sweeps failure counts over all path selectors and routing
// mechanisms. The failure set at a given (topology sample, pattern sample,
// failure count) is shared by every selector and mechanism, so the columns
// are directly comparable.
func FaultRun(cfg FaultRunConfig, sc Scale) (*FaultRunResult, error) {
	cfg = cfg.withDefaults()
	sc, err := sc.withDefaults()
	if err != nil {
		return nil, err
	}
	mechs := routing.Mechanisms()
	res := &FaultRunResult{
		Config:      cfg,
		Selectors:   SelectorNames(false),
		FailedLinks: cfg.FailedLinks,
	}
	for _, m := range mechs {
		res.Mechanisms = append(res.Mechanisms, m.Name())
	}

	// Shared per-topology state: the topology, its VC count, one fault
	// schedule per (pattern sample, failure count), and one path DB per
	// selector.
	topos := make([]*jellyfish.Topology, sc.TopoSamples)
	numVCs := make([]int, sc.TopoSamples)
	dbs := make([][]*paths.DB, sc.TopoSamples)
	scheds := make([][][]*faults.Schedule, sc.TopoSamples)
	for ti := 0; ti < sc.TopoSamples; ti++ {
		topo, err := sc.buildTopo(cfg.Params, ti)
		if err != nil {
			return nil, err
		}
		topos[ti] = topo
		numVCs[ti] = sc.numVCs(topo)
		scheds[ti] = make([][]*faults.Schedule, sc.PatternSamples)
		for pi := 0; pi < sc.PatternSamples; pi++ {
			scheds[ti][pi] = make([]*faults.Schedule, len(cfg.FailedLinks))
			for fi, f := range cfg.FailedLinks {
				if f > topo.G.NumEdges() {
					return nil, fmt.Errorf("exp: cannot fail %d of %d links", f, topo.G.NumEdges())
				}
				sched, err := faults.Random(topo.G, f, flitsim.WarmupCycles+flitsim.SampleCycles,
					xrand.Mix64(sc.Seed^uint64(ti)<<40^uint64(pi)<<20^uint64(fi)))
				if err != nil {
					return nil, err
				}
				scheds[ti][pi][fi] = sched
			}
		}
		// The DBs serve every failure count.
		reads, err := FlitConfig{Pattern: cfg.Pattern}.reads(sc, topo, ti, sc.PatternSamples, mechs,
			slices.Max(cfg.FailedLinks) > 0)
		if err != nil {
			return nil, err
		}
		dbs[ti] = make([]*paths.DB, len(ksp.Algorithms))
		for ai, alg := range ksp.Algorithms {
			if dbs[ti][ai], err = sc.pathDB(topo, alg, ti, reads); err != nil {
				return nil, err
			}
		}
	}

	type job struct {
		ti, pi, fi, ai, mi int
	}
	var jobs []job
	for ti := 0; ti < sc.TopoSamples; ti++ {
		for pi := 0; pi < sc.PatternSamples; pi++ {
			for fi := range cfg.FailedLinks {
				for ai := range ksp.Algorithms {
					for mi := range mechs {
						jobs = append(jobs, job{ti, pi, fi, ai, mi})
					}
				}
			}
		}
	}
	delivered := make([]float64, len(jobs))
	dropped := make([]float64, len(jobs))
	errs := make([]error, len(jobs))
	par.For(len(jobs), sc.Workers, func(i int) {
		j := jobs[i]
		topo := topos[j.ti]
		sampler, _, err := samplerFor(cfg.Pattern, topo.NumTerminals(), sc.patternSeed(j.ti, j.pi))
		if err != nil {
			errs[i] = err
			return
		}
		sim, err := flitsim.NewSim(flitsim.Config{
			Topo:          topo,
			Paths:         dbs[j.ti][j.ai],
			Mechanism:     mechs[j.mi],
			Traffic:       sampler,
			InjectionRate: cfg.InjectionRate,
			NumVCs:        numVCs[j.ti],
			Seed:          xrand.Mix64(sc.Seed ^ uint64(j.ti)<<32 ^ uint64(j.pi)<<16 ^ uint64(j.fi)),
			Faults:        scheds[j.ti][j.pi][j.fi],
			FaultPolicy:   cfg.Policy,
		})
		if err != nil {
			errs[i] = err
			return
		}
		r := sim.Run()
		delivered[i] = r.DeliveredRate
		dropped[i] = float64(r.Dropped)
	})
	sums := make([][][]float64, len(cfg.FailedLinks))
	drops := make([][][]float64, len(cfg.FailedLinks))
	counts := make([][][]int, len(cfg.FailedLinks))
	for fi := range cfg.FailedLinks {
		sums[fi] = make([][]float64, len(ksp.Algorithms))
		drops[fi] = make([][]float64, len(ksp.Algorithms))
		counts[fi] = make([][]int, len(ksp.Algorithms))
		for ai := range ksp.Algorithms {
			sums[fi][ai] = make([]float64, len(mechs))
			drops[fi][ai] = make([]float64, len(mechs))
			counts[fi][ai] = make([]int, len(mechs))
		}
	}
	for i, err := range errs {
		if err != nil {
			return nil, err
		}
		j := jobs[i]
		sums[j.fi][j.ai][j.mi] += delivered[i]
		drops[j.fi][j.ai][j.mi] += dropped[i]
		counts[j.fi][j.ai][j.mi]++
	}
	res.Delivered = sums
	res.Dropped = drops
	for fi := range sums {
		for ai := range sums[fi] {
			for mi := range sums[fi][ai] {
				if n := counts[fi][ai][mi]; n > 0 {
					res.Delivered[fi][ai][mi] /= float64(n)
					res.Dropped[fi][ai][mi] /= float64(n)
				}
			}
		}
	}
	return res, nil
}

// MechTable renders delivered throughput for one mechanism: one row per
// failure count, one column per selector.
func (r *FaultRunResult) MechTable(title string, mi int) *stats.Table {
	headers := append([]string{"Failed links"}, r.Selectors...)
	t := stats.NewTable(fmt.Sprintf("%s [%s]", title, r.Mechanisms[mi]), headers...)
	for fi, f := range r.FailedLinks {
		row := []string{fmt.Sprintf("%d", f)}
		for ai := range r.Selectors {
			row = append(row, fmt.Sprintf("%.3f", r.Delivered[fi][ai][mi]))
		}
		t.AddRow(row...)
	}
	return t
}

// Tables renders one MechTable per mechanism.
func (r *FaultRunResult) Tables(title string) []*stats.Table {
	out := make([]*stats.Table, len(r.Mechanisms))
	for mi := range r.Mechanisms {
		out[mi] = r.MechTable(title, mi)
	}
	return out
}

// PathsTable renders the mean surviving path counts.
func (r *FaultResilienceResult) PathsTable(title string) *stats.Table {
	headers := append([]string{"Failed links"}, r.Selectors...)
	t := stats.NewTable(title, headers...)
	for fi, f := range r.FailedLinks {
		row := []string{fmt.Sprintf("%d", f)}
		for ai := range r.Selectors {
			row = append(row, fmt.Sprintf("%.2f", r.MeanSurvivingPaths[fi][ai]))
		}
		t.AddRow(row...)
	}
	return t
}
