package exp

import (
	"fmt"

	"repro/internal/appsim"
	"repro/internal/faults"
	"repro/internal/jellyfish"
	"repro/internal/ksp"
	"repro/internal/paths"
	"repro/internal/routing"
	"repro/internal/stats"
	"repro/internal/traffic"
	"repro/internal/xrand"
)

// AppConfig parameterizes the application-simulation experiments
// (Tables V and VI).
type AppConfig struct {
	Params jellyfish.Params
	// Mapping is "linear" or "random".
	Mapping string
	// BytesPerRank is the per-rank send volume (default 15 MB, the
	// paper's setting).
	BytesPerRank int64
	// Mechanism is the per-packet routing mechanism (default KSP-adaptive).
	Mechanism routing.Mechanism
	// Stencils to run (default all four).
	Stencils []traffic.StencilKind
	// FaultSpec optionally injects the same link-failure schedule into
	// every replay (see faults.ParseSpec); random specs are drawn once per
	// topology instance, so all selectors face identical failures.
	FaultSpec string
	// FaultPolicy names the fault policy ("" = reroute with repair).
	FaultPolicy string
}

// appSelectors are the path selectors Tables V and VI compare, in the
// paper's column order.
var appSelectors = []ksp.Algorithm{ksp.REDKSP, ksp.KSP, ksp.RKSP}

// AppResult holds the communication times: Seconds[stencil][selector].
type AppResult struct {
	Config    AppConfig
	Stencils  []string
	Selectors []string
	Seconds   [][]float64
}

// AppCommTimes reproduces Table V (linear mapping) or Table VI (random
// mapping): the communication time of each stencil workload under each
// path-selection scheme, averaged over TopoSamples topology instances and
// PatternSamples mapping instances (mapping instances only matter for
// random mapping).
func AppCommTimes(cfg AppConfig, sc Scale) (*AppResult, error) {
	sc, err := sc.withDefaults()
	if err != nil {
		return nil, err
	}
	if cfg.BytesPerRank == 0 {
		cfg.BytesPerRank = traffic.DefaultTotalBytes
	}
	if len(cfg.Stencils) == 0 {
		cfg.Stencils = traffic.StencilKinds
	}
	if cfg.Mapping != "linear" && cfg.Mapping != "random" {
		return nil, fmt.Errorf("exp: unknown mapping %q (want linear or random)", cfg.Mapping)
	}
	policy, err := faults.PolicyByName(cfg.FaultPolicy)
	if err != nil {
		return nil, err
	}
	res := &AppResult{Config: cfg}
	for _, k := range cfg.Stencils {
		res.Stencils = append(res.Stencils, k.String())
	}
	for _, a := range appSelectors {
		res.Selectors = append(res.Selectors, fmt.Sprintf("%s(%d)", a, sc.K))
	}

	sums := make([][]float64, len(cfg.Stencils))
	counts := make([][]int, len(cfg.Stencils))
	for i := range sums {
		sums[i] = make([]float64, len(appSelectors))
		counts[i] = make([]int, len(appSelectors))
	}

	for ti := 0; ti < sc.TopoSamples; ti++ {
		topo, err := sc.buildTopo(cfg.Params, ti)
		if err != nil {
			return nil, err
		}
		sched, err := faults.ParseSpec(cfg.FaultSpec, topo.G, xrand.Mix64(sc.Seed^uint64(ti)))
		if err != nil {
			return nil, err
		}
		prs := cfg.reads(sc, topo, ti, !sched.Empty())
		dbs := make([]*paths.DB, len(appSelectors))
		for ai, alg := range appSelectors {
			if dbs[ai], err = sc.pathDB(topo, alg, ti, prs); err != nil {
				return nil, err
			}
		}
		err = cfg.eachReplay(sc, ti, topo.NumTerminals(), func(si, mi int, flows []traffic.SizedFlow) error {
			for ai := range appSelectors {
				r, err := appsim.Run(appsim.Config{
					Topo:        topo,
					Paths:       dbs[ai],
					Mechanism:   cfg.Mechanism,
					Flows:       flows,
					Seed:        xrand.Mix64(sc.Seed ^ uint64(ti)<<40 ^ uint64(si)<<24 ^ uint64(mi)<<8 ^ uint64(ai)),
					Faults:      sched,
					FaultPolicy: policy,
				})
				if err != nil {
					return fmt.Errorf("exp: %s/%s: %w", cfg.Stencils[si], appSelectors[ai], err)
				}
				sums[si][ai] += r.Seconds
				counts[si][ai]++
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	res.Seconds = make([][]float64, len(cfg.Stencils))
	for si := range sums {
		res.Seconds[si] = make([]float64, len(appSelectors))
		for ai := range sums[si] {
			if counts[si][ai] > 0 {
				res.Seconds[si][ai] = sums[si][ai] / float64(counts[si][ai])
			}
		}
	}
	return res, nil
}

// eachReplay calls fn with the terminal flows of every replay on topology
// sample ti, in order: each stencil (index si) under each mapping
// instance (index mi; linear mapping has one), one at a time. fn's first
// error ends the walk and is returned.
func (cfg AppConfig) eachReplay(sc Scale, ti, nTerms int, fn func(si, mi int, flows []traffic.SizedFlow) error) error {
	mapSamples := sc.PatternSamples
	if cfg.Mapping == "linear" {
		mapSamples = 1
	}
	for si, kind := range cfg.Stencils {
		w := traffic.Stencil(traffic.StencilConfig{
			Kind: kind, Ranks: nTerms, TotalBytes: cfg.BytesPerRank,
		})
		for mi := 0; mi < mapSamples; mi++ {
			var mapping traffic.Mapping
			if cfg.Mapping == "linear" {
				mapping = traffic.LinearMapping(nTerms)
			} else {
				mapping = traffic.RandomMapping(nTerms, sc.patternSeed(ti, mi))
			}
			if err := fn(si, mi, w.Apply(mapping)); err != nil {
				return err
			}
		}
	}
	return nil
}

// reads returns the switch pairs the replays read on topology sample ti,
// with links failing when faulted (see readsAny): the flow ends of every
// replay.
func (cfg AppConfig) reads(sc Scale, topo *jellyfish.Topology, ti int, faulted bool) []paths.Pair {
	r := newReadSet(topo, readsAny([]routing.Mechanism{cfg.Mechanism}, faulted))
	cfg.eachReplay(sc, ti, topo.NumTerminals(), func(_, _ int, flows []traffic.SizedFlow) error {
		r.addFlows(flows)
		return nil
	})
	return r.pairs()
}

// Table renders the paper's Table V/VI layout: per stencil, the reference
// selector's time (column 0) and each other selector's time plus the
// reference's improvement over it.
func (r *AppResult) Table(title string) *stats.Table {
	headers := []string{"Application", r.Selectors[0] + " time(ms)"}
	for _, s := range r.Selectors[1:] {
		headers = append(headers, s+" time(ms)", "imp.")
	}
	t := stats.NewTable(title, headers...)
	var sumImp []float64
	if len(r.Selectors) > 1 {
		sumImp = make([]float64, len(r.Selectors)-1)
	}
	for si, st := range r.Stencils {
		ref := r.Seconds[si][0]
		row := []string{st, fmt.Sprintf("%.2f", ref*1e3)}
		for ai := 1; ai < len(r.Selectors); ai++ {
			v := r.Seconds[si][ai]
			imp := stats.Improvement(v, ref)
			sumImp[ai-1] += imp
			row = append(row, fmt.Sprintf("%.2f", v*1e3), fmt.Sprintf("%.1f%%", imp))
		}
		t.AddRow(row...)
	}
	if len(r.Stencils) > 0 && len(r.Selectors) > 1 {
		row := []string{"Average", ""}
		for _, s := range sumImp {
			row = append(row, "", fmt.Sprintf("%.1f%%", s/float64(len(r.Stencils))))
		}
		t.AddRow(row...)
	}
	return t
}
