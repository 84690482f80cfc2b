package exp

import (
	"fmt"
	"slices"

	"repro/internal/faults"
	"repro/internal/flitsim"
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
	survive := newMeanGrid(len(failedLinks), len(ksp.Algorithms))
	intact := newMeanGrid(len(failedLinks), len(ksp.Algorithms))
	for fi, f := range failedLinks {
		for trial := 0; trial < sc.PatternSamples; trial++ {
			sched, err := faults.Random(topo.G, f, 0, xrand.NewPair(sc.Seed^uint64(fi)<<32, uint64(trial)))
			if err != nil {
				return nil, err
			}
			st, err := faults.NewState(topo.G, sched, faults.Policy{}, nil, 0)
			if err != nil {
				return nil, err
			}
			st.Advance(0)
			for ai := range ksp.Algorithms {
				alive, meanPaths := survival(dbs[ai], prs, st, sc.Workers)
				survive.add(fi, ai, alive)
				intact.add(fi, ai, meanPaths)
			}
		}
	}
	res.Survive, res.MeanSurvivingPaths = survive.means(), intact.means()
	return res, nil
}

// survival returns (fraction of pairs with >= 1 intact path, mean intact
// paths per pair) under the failed links of st, whose events have all
// been applied.
func survival(db *paths.DB, prs []paths.Pair, st *faults.State, workers int) (float64, float64) {
	aliveCnt := make([]int32, len(prs))
	pathCnt := make([]int32, len(prs))
	par.For(len(prs), workers, func(i int) {
		intact := int32(0)
		for _, p := range db.Paths(prs[i].Src, prs[i].Dst) {
			if st.PathAlive(p) {
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
	return gridTable(title, "Failed links", labels("%d", r.FailedLinks), r.Selectors, func(fi, ai int) string {
		return fmt.Sprintf("%.3f", r.Survive[fi][ai])
	})
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
		Mechanisms:  mechNames(mechs),
		FailedLinks: cfg.FailedLinks,
	}
	// Besides its DBs, which serve every failure count, each topology
	// sample has one fault schedule per (pattern sample, failure count).
	scheds := make([][][]*faults.Schedule, sc.TopoSamples)
	samples, err := sc.samples(cfg.Params, true, ksp.Algorithms, func(topo *jellyfish.Topology, ti int) ([]paths.Pair, error) {
		scheds[ti] = make([][]*faults.Schedule, sc.PatternSamples)
		for pi := range scheds[ti] {
			scheds[ti][pi] = make([]*faults.Schedule, len(cfg.FailedLinks))
			for fi, f := range cfg.FailedLinks {
				if f > topo.G.NumEdges() {
					return nil, fmt.Errorf("exp: cannot fail %d of %d links", f, topo.G.NumEdges())
				}
				sched, err := faults.Random(topo.G, f, flitsim.WarmupCycles+flitsim.SampleCycles,
					xrand.New(xrand.Mix64(sc.Seed^uint64(ti)<<40^uint64(pi)<<20^uint64(fi))))
				if err != nil {
					return nil, err
				}
				scheds[ti][pi][fi] = sched
			}
		}
		return FlitConfig{Pattern: cfg.Pattern}.reads(sc, topo, ti, sc.PatternSamples, mechs,
			slices.Max(cfg.FailedLinks) > 0)
	})
	if err != nil {
		return nil, err
	}

	// Job (ti, pi, fi, ai, mi) runs selector ai under mechanism mi on
	// pattern sample pi of topology sample ti with fi's failures. Row
	// fi*selectors+ai of the means holds its (fi, ai) cells.
	nA := len(ksp.Algorithms)
	delivered := newMeanGrid(len(cfg.FailedLinks)*nA, len(mechs))
	dropped := newMeanGrid(len(cfg.FailedLinks)*nA, len(mechs))
	err = runJobs(jobGrid{sc.TopoSamples, sc.PatternSamples, len(cfg.FailedLinks), nA, len(mechs)}, sc.Workers,
		func(_ int, j []int) (flitsim.Result, error) {
			ti, pi, fi := j[0], j[1], j[2]
			s := samples[ti]
			sampler, _, err := samplerFor(cfg.Pattern, s.topo.NumTerminals(), sc.patternSeed(ti, pi))
			if err != nil {
				return flitsim.Result{}, err
			}
			c := s.flit(j[3], mechs[j[4]], sampler, xrand.Mix64(sc.Seed^uint64(ti)<<32^uint64(pi)<<16^uint64(fi)))
			c.InjectionRate, c.Faults, c.FaultPolicy = cfg.InjectionRate, scheds[ti][pi][fi], cfg.Policy
			sim, err := flitsim.NewSim(c)
			if err != nil {
				return flitsim.Result{}, err
			}
			return sim.Run(), nil
		}, func(j []int, r flitsim.Result) {
			delivered.add(j[2]*nA+j[3], j[4], r.DeliveredRate)
			dropped.add(j[2]*nA+j[3], j[4], float64(r.Dropped))
		})
	if err != nil {
		return nil, err
	}
	d, dr := delivered.means(), dropped.means()
	for fi := range cfg.FailedLinks {
		lo, hi := fi*nA, (fi+1)*nA
		res.Delivered = append(res.Delivered, d[lo:hi:hi])
		res.Dropped = append(res.Dropped, dr[lo:hi:hi])
	}
	return res, nil
}

// MechTable renders delivered throughput for one mechanism: one row per
// failure count, one column per selector.
func (r *FaultRunResult) MechTable(title string, mi int) *stats.Table {
	return gridTable(fmt.Sprintf("%s [%s]", title, r.Mechanisms[mi]), "Failed links", labels("%d", r.FailedLinks), r.Selectors,
		func(fi, ai int) string { return fmt.Sprintf("%.3f", r.Delivered[fi][ai][mi]) })
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
	return gridTable(title, "Failed links", labels("%d", r.FailedLinks), r.Selectors, func(fi, ai int) string {
		return fmt.Sprintf("%.2f", r.MeanSurvivingPaths[fi][ai])
	})
}
