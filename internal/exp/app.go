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

	// The topology samples run one after another, so only one sample's
	// DBs are alive at a time; taking them in order keeps the job order.
	seconds := newMeanGrid(len(cfg.Stencils), len(appSelectors))
	for ti := 0; ti < sc.TopoSamples; ti++ {
		var sched *faults.Schedule
		s, err := sc.sample(cfg.Params, ti, false, appSelectors, func(topo *jellyfish.Topology, ti int) ([]paths.Pair, error) {
			var err error
			if sched, err = faults.ParseSpec(cfg.FaultSpec, topo.G, xrand.Mix64(sc.Seed^uint64(ti))); err != nil {
				return nil, err
			}
			return cfg.reads(sc, topo, ti, !sched.Empty()), nil
		})
		if err != nil {
			return nil, err
		}
		// Job (si, mi, ai) replays stencil si under mapping instance mi
		// with selector ai's paths.
		err = runJobs(jobGrid{len(cfg.Stencils), cfg.mapSamples(sc), len(appSelectors)}, sc.Workers,
			func(_ int, j []int) (float64, error) {
				si, mi, ai := j[0], j[1], j[2]
				r, err := appsim.Run(appsim.Config{
					Topo:        s.topo,
					Paths:       s.dbs[ai],
					Mechanism:   cfg.Mechanism,
					Flows:       cfg.flows(sc, ti, si, mi, s.topo.NumTerminals()),
					Seed:        xrand.Mix64(sc.Seed ^ uint64(ti)<<40 ^ uint64(si)<<24 ^ uint64(mi)<<8 ^ uint64(ai)),
					Faults:      sched,
					FaultPolicy: policy,
				})
				if err != nil {
					return 0, fmt.Errorf("exp: %s/%s: %w", cfg.Stencils[si], appSelectors[ai], err)
				}
				return r.Seconds, nil
			}, func(j []int, secs float64) { seconds.add(j[0], j[2], secs) })
		if err != nil {
			return nil, err
		}
	}
	res.Seconds = seconds.means()
	return res, nil
}

// mapSamples returns the number of mapping instances each stencil is
// replayed under: PatternSamples for the random mapping, one for the
// linear mapping.
func (cfg AppConfig) mapSamples(sc Scale) int {
	if cfg.Mapping == "linear" {
		return 1
	}
	return sc.PatternSamples
}

// flows returns the terminal flows of stencil si under mapping instance
// mi on topology sample ti, which has nTerms terminals.
func (cfg AppConfig) flows(sc Scale, ti, si, mi, nTerms int) []traffic.SizedFlow {
	var mapping traffic.Mapping
	if cfg.Mapping == "linear" {
		mapping = traffic.LinearMapping(nTerms)
	} else {
		mapping = traffic.RandomMapping(nTerms, sc.patternSeed(ti, mi))
	}
	return traffic.Stencil(traffic.StencilConfig{Kind: cfg.Stencils[si], Ranks: nTerms, TotalBytes: cfg.BytesPerRank}).
		Apply(mapping)
}

// reads returns the switch pairs the replays read on topology sample ti,
// with links failing when faulted (see readsAny): the flow ends of every
// replay.
func (cfg AppConfig) reads(sc Scale, topo *jellyfish.Topology, ti int, faulted bool) []paths.Pair {
	r := newReadSet(topo, readsAny([]routing.Mechanism{cfg.Mechanism}, faulted))
	for si := range cfg.Stencils {
		for mi := 0; mi < cfg.mapSamples(sc); mi++ {
			r.addFlows(cfg.flows(sc, ti, si, mi, topo.NumTerminals()))
		}
	}
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
