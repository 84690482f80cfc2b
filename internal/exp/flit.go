package exp

import (
	"fmt"
	"math"

	"repro/internal/flitsim"
	"repro/internal/jellyfish"
	"repro/internal/ksp"
	"repro/internal/par"
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
	res := &SaturationResult{Config: cfg, Selectors: SelectorNames(false)}
	for _, m := range mechs {
		res.Mechanisms = append(res.Mechanisms, m.Name())
	}

	type job struct {
		ti, pi, ai, mi int
	}
	var jobs []job
	for ti := 0; ti < sc.TopoSamples; ti++ {
		for pi := 0; pi < sc.PatternSamples; pi++ {
			for ai := range ksp.Algorithms {
				for mi := range mechs {
					jobs = append(jobs, job{ti, pi, ai, mi})
				}
			}
		}
	}

	// Shared per-topology state built once.
	topos := make([]*jellyfish.Topology, sc.TopoSamples)
	numVCs := make([]int, sc.TopoSamples)
	dbs := make([][]*paths.DB, sc.TopoSamples)
	for ti := 0; ti < sc.TopoSamples; ti++ {
		topo, err := sc.buildTopo(cfg.Params, ti)
		if err != nil {
			return nil, err
		}
		topos[ti] = topo
		numVCs[ti] = sc.numVCs(topo)
		reads, err := cfg.reads(sc, topo, ti, sc.PatternSamples, mechs, false)
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

	sums := make([][]float64, len(ksp.Algorithms))
	counts := make([][]int, len(ksp.Algorithms))
	for i := range sums {
		sums[i] = make([]float64, len(mechs))
		counts[i] = make([]int, len(mechs))
	}
	results := make([]float64, len(jobs))
	errs := make([]error, len(jobs))
	par.For(len(jobs), sc.Workers, func(i int) {
		j := jobs[i]
		topo := topos[j.ti]
		sampler, _, err := samplerFor(cfg.Pattern, topo.NumTerminals(), sc.patternSeed(j.ti, j.pi))
		if err != nil {
			errs[i] = err
			return
		}
		base := flitsim.Config{
			Topo:      topo,
			Paths:     dbs[j.ti][j.ai],
			Mechanism: mechs[j.mi],
			Traffic:   sampler,
			NumVCs:    numVCs[j.ti],
			Seed:      xrand.Mix64(sc.Seed ^ uint64(i)<<16),
		}
		results[i] = saturationSeq(base, cfg.Rates)
	})
	for i, err := range errs {
		if err != nil {
			return nil, err
		}
		j := jobs[i]
		sums[j.ai][j.mi] += results[i]
		counts[j.ai][j.mi]++
	}
	res.Mean = make([][]float64, len(ksp.Algorithms))
	for ai := range sums {
		res.Mean[ai] = make([]float64, len(mechs))
		for mi := range sums[ai] {
			if counts[ai][mi] > 0 {
				res.Mean[ai][mi] = sums[ai][mi] / float64(counts[ai][mi])
			}
		}
	}
	return res, nil
}

// saturationSeq scans rates in ascending order and stops at the first
// saturated run, returning the last unsaturated rate (0 if even the first
// rate saturates). Sequential early-stop: the harness parallelizes across
// experiment combinations instead.
func saturationSeq(base flitsim.Config, rates []float64) float64 {
	sat := 0.0
	for ri, rate := range rates {
		c := base
		c.InjectionRate = rate
		c.Seed = xrand.Mix64(base.Seed ^ uint64(ri+1)*0x9e3779b97f4a7c15)
		if flitsim.New(c).Run().Saturated {
			break
		}
		sat = rate
	}
	return sat
}

// Table renders the figure data: selectors as rows, mechanisms as columns.
func (r *SaturationResult) Table(title string) *stats.Table {
	headers := append([]string{"Selector"}, r.Mechanisms...)
	t := stats.NewTable(title, headers...)
	for ai, sel := range r.Selectors {
		row := []string{sel}
		for mi := range r.Mechanisms {
			row = append(row, fmt.Sprintf("%.3f", r.Mean[ai][mi]))
		}
		t.AddRow(row...)
	}
	return t
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
	topo, err := sc.buildTopo(cfg.Params, 0)
	if err != nil {
		return nil, err
	}
	numVC := sc.numVCs(topo)
	sampler, _, err := samplerFor(cfg.Pattern, topo.NumTerminals(), sc.patternSeed(0, 0))
	if err != nil {
		return nil, err
	}
	reads, err := cfg.reads(sc, topo, 0, 1, []routing.Mechanism{mech}, false)
	if err != nil {
		return nil, err
	}
	for ai, alg := range ksp.Algorithms {
		db, err := sc.pathDB(topo, alg, 0, reads)
		if err != nil {
			return nil, err
		}
		base := flitsim.Config{
			Topo:      topo,
			Paths:     db,
			Mechanism: mech,
			Traffic:   sampler,
			NumVCs:    numVC,
			Seed:      xrand.Mix64(sc.Seed ^ uint64(ai)<<24),
		}
		runs := flitsim.Sweep(base, cfg.Rates, sc.Workers)
		series := make([]float64, len(runs))
		for ri, r := range runs {
			if r.Saturated {
				series[ri] = math.NaN()
			} else {
				series[ri] = r.AvgLatency
			}
		}
		res.Latency[ai] = series
	}
	return res, nil
}

// Table renders the curves: one row per load point, one column per
// selector ("sat" marks saturated points).
func (r *CurveResult) Table(title string) *stats.Table {
	headers := append([]string{"Load"}, r.Selectors...)
	t := stats.NewTable(title, headers...)
	for ri, rate := range r.Rates {
		row := []string{fmt.Sprintf("%.2f", rate)}
		for ai := range r.Selectors {
			v := r.Latency[ai][ri]
			if math.IsNaN(v) {
				row = append(row, "sat")
			} else {
				row = append(row, fmt.Sprintf("%.1f", v))
			}
		}
		t.AddRow(row...)
	}
	return t
}
