package exp

import (
	"fmt"
	"math"

	"repro/internal/flitsim"
	"repro/internal/jellyfish"
	"repro/internal/ksp"
	"repro/internal/paths"
	"repro/internal/routing"
	"repro/internal/stats"
	"repro/internal/traffic"
	"repro/internal/xrand"
)

// FlitConfig parameterizes the cycle-level simulation experiments
// (Figures 7-13).
type FlitConfig struct {
	Params jellyfish.Params
	// Pattern is "permutation", "shift" or "uniform".
	Pattern string
	// Rates is the offered-load sweep (default 0.05..1.00 step 0.05).
	Rates []float64
}

func (c FlitConfig) withDefaults() FlitConfig {
	if len(c.Rates) == 0 {
		c.Rates = flitsim.Rates(0.05, 1.0, 0.05)
	}
	return c
}

// samplerFor builds the per-instance traffic sampler and returns it with
// the fixed pattern behind it (none for uniform traffic).
func samplerFor(pattern string, nTerms int, rng *xrand.RNG) (traffic.Sampler, traffic.Pattern, error) {
	var pat traffic.Pattern
	switch pattern {
	case "permutation":
		pat = traffic.RandomPermutation(nTerms, rng)
	case "shift":
		pat = traffic.RandomShift(nTerms, rng)
	case "uniform":
		return traffic.Uniform{N: nTerms}, pat, nil
	default:
		return nil, pat, fmt.Errorf("exp: unknown simulator pattern %q", pattern)
	}
	return traffic.NewFixedSampler(pat), pat, nil
}

// reads returns the switch pairs flit runs of cfg's pattern read on
// topology sample ti over pattern instances 0..samples-1, routed by
// mechs, with links failing when faulted (see readsAny). Uniform traffic
// reads every pair.
func (cfg FlitConfig) reads(sc Scale, topo *jellyfish.Topology, ti, samples int, mechs []routing.Mechanism, faulted bool) ([]paths.Pair, error) {
	r := newReadSet(topo, cfg.Pattern == "uniform" || readsAny(mechs, faulted))
	for pi := 0; pi < samples; pi++ {
		_, pat, err := samplerFor(cfg.Pattern, topo.NumTerminals(), sc.patternSeed(ti, pi))
		if err != nil {
			return nil, err
		}
		r.addPattern(pat)
	}
	return r.pairs(), nil
}

// SaturationResult holds Figures 7-10 data: mean saturation throughput per
// (selector, mechanism).
type SaturationResult struct {
	Config     FlitConfig
	Selectors  []string
	Mechanisms []string
	// Mean[selector][mechanism], averaged over topology and pattern
	// samples.
	Mean [][]float64
}

// FlitSaturation reproduces one of Figures 7-10: the average saturation
// throughput of every path selector under every routing mechanism.
func FlitSaturation(cfg FlitConfig, sc Scale) (*SaturationResult, error) {
	cfg = cfg.withDefaults()
	sc, err := sc.withDefaults()
	if err != nil {
		return nil, err
	}
	mechs := routing.Mechanisms()
	res := &SaturationResult{Config: cfg, Selectors: SelectorNames(false), Mechanisms: mechNames(mechs)}
	samples, err := sc.samples(cfg.Params, true, ksp.Algorithms, func(topo *jellyfish.Topology, ti int) ([]paths.Pair, error) {
		return cfg.reads(sc, topo, ti, sc.PatternSamples, mechs, false)
	})
	if err != nil {
		return nil, err
	}
	// Job i is the saturation search of selector ai under mechanism mi on
	// pattern sample pi of topology sample ti, seeded by i.
	mean := newMeanGrid(len(ksp.Algorithms), len(mechs))
	err = runJobs(jobGrid{sc.TopoSamples, sc.PatternSamples, len(ksp.Algorithms), len(mechs)}, sc.Workers,
		func(i int, j []int) (float64, error) {
			s := samples[j[0]]
			sampler, _, err := samplerFor(cfg.Pattern, s.topo.NumTerminals(), sc.patternSeed(j[0], j[1]))
			if err != nil {
				return 0, err
			}
			sat, _ := flitsim.SaturationThroughput(s.flit(j[2], mechs[j[3]], sampler, xrand.Mix64(sc.Seed^uint64(i)<<16)), cfg.Rates)
			return sat, nil
		}, func(j []int, sat float64) { mean.add(j[2], j[3], sat) })
	if err != nil {
		return nil, err
	}
	res.Mean = mean.means()
	return res, nil
}

// mechNames returns the names of mechs.
func mechNames(mechs []routing.Mechanism) []string {
	names := make([]string, len(mechs))
	for i, m := range mechs {
		names[i] = m.Name()
	}
	return names
}

// Table renders the figure data: selectors as rows, mechanisms as columns.
func (r *SaturationResult) Table(title string) *stats.Table {
	return gridTable(title, "Selector", r.Selectors, r.Mechanisms, func(ai, mi int) string {
		return fmt.Sprintf("%.3f", r.Mean[ai][mi])
	})
}

// CurveResult holds Figures 11-13 data: average packet latency versus
// offered load, one series per path selector, NaN where saturated.
type CurveResult struct {
	Config    FlitConfig
	Mechanism string
	Selectors []string
	Rates     []float64
	// Latency[selector][rate]; math.NaN() marks saturated points.
	Latency [][]float64
}

// FlitLatencyCurve reproduces one of Figures 11-13: latency-versus-load
// curves for all four selectors under one routing mechanism.
func FlitLatencyCurve(cfg FlitConfig, mech routing.Mechanism, sc Scale) (*CurveResult, error) {
	cfg = cfg.withDefaults()
	sc, err := sc.withDefaults()
	if err != nil {
		return nil, err
	}
	res := &CurveResult{
		Config:    cfg,
		Mechanism: mech.Name(),
		Selectors: SelectorNames(false),
		Rates:     cfg.Rates,
		Latency:   make([][]float64, len(ksp.Algorithms)),
	}
	s, err := sc.sample(cfg.Params, 0, true, ksp.Algorithms, func(topo *jellyfish.Topology, ti int) ([]paths.Pair, error) {
		return cfg.reads(sc, topo, ti, 1, []routing.Mechanism{mech}, false)
	})
	if err != nil {
		return nil, err
	}
	sampler, _, err := samplerFor(cfg.Pattern, s.topo.NumTerminals(), sc.patternSeed(0, 0))
	if err != nil {
		return nil, err
	}
	for ai := range ksp.Algorithms {
		runs := flitsim.Sweep(s.flit(ai, mech, sampler, xrand.Mix64(sc.Seed^uint64(ai)<<24)), cfg.Rates, sc.Workers)
		res.Latency[ai] = make([]float64, len(runs))
		for ri, r := range runs {
			res.Latency[ai][ri] = r.AvgLatency
			if r.Saturated {
				res.Latency[ai][ri] = math.NaN()
			}
		}
	}
	return res, nil
}

// Table renders the curves: one row per load point, one column per
// selector ("sat" marks saturated points).
func (r *CurveResult) Table(title string) *stats.Table {
	return gridTable(title, "Load", labels("%.2f", r.Rates), r.Selectors, func(ri, ai int) string {
		if v := r.Latency[ai][ri]; !math.IsNaN(v) {
			return fmt.Sprintf("%.1f", v)
		}
		return "sat"
	})
}
