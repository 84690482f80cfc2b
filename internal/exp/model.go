package exp

import (
	"fmt"
	"slices"

	"repro/internal/jellyfish"
	"repro/internal/ksp"
	"repro/internal/model"
	"repro/internal/paths"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// ModelPatterns are the four traffic patterns of Figures 4-6, in the
// paper's order. "random(X)" uses ModelConfig.RandomX destinations.
var ModelPatterns = []string{"permutation", "shift", "random(X)", "all-to-all"}

// ModelConfig parameterizes the throughput-model figures.
type ModelConfig struct {
	Params jellyfish.Params
	// Patterns to evaluate (default ModelPatterns).
	Patterns []string
	// RandomX is the X of Random(X) (paper: 50).
	RandomX int
	// IncludeSP adds the single-path baseline column.
	IncludeSP bool
}

// ModelFigureResult holds the mean per-node normalized throughput for one
// topology: Mean[pattern][selector], selectors ordered as Selectors.
type ModelFigureResult struct {
	Config    ModelConfig
	Patterns  []string
	Selectors []string
	Mean      [][]float64
}

// ModelThroughput reproduces one of Figures 4-6: the average model
// throughput over TopoSamples topology instances and PatternSamples
// traffic instances for every path selection scheme.
func ModelThroughput(cfg ModelConfig, sc Scale) (*ModelFigureResult, error) {
	sc, err := sc.withDefaults()
	if err != nil {
		return nil, err
	}
	if cfg.RandomX == 0 {
		cfg.RandomX = 50
	}
	if len(cfg.Patterns) == 0 {
		cfg.Patterns = ModelPatterns
	}
	// Random(X) sends every terminal's traffic to X distinct others.
	if terms := cfg.Params.N * (cfg.Params.X - cfg.Params.Y); slices.Contains(cfg.Patterns, "random(X)") &&
		(cfg.RandomX < 1 || cfg.RandomX >= terms) {
		return nil, fmt.Errorf("exp: random(X) X %d out of range (want 1 <= X < %d, the terminal count)", cfg.RandomX, terms)
	}
	res := &ModelFigureResult{
		Config:    cfg,
		Patterns:  cfg.Patterns,
		Selectors: SelectorNames(cfg.IncludeSP),
	}
	mean := newMeanGrid(len(cfg.Patterns), len(res.Selectors))
	for ti := 0; ti < sc.TopoSamples; ti++ {
		// One DB per selector per topology sample: patterns share it.
		s, err := sc.sample(cfg.Params, ti, false, ksp.Algorithms, func(topo *jellyfish.Topology, ti int) ([]paths.Pair, error) {
			return cfg.reads(sc, topo, ti)
		})
		if err != nil {
			return nil, err
		}
		err = cfg.eachPattern(sc, ti, s.topo.NumTerminals(), func(pi int, pat traffic.Pattern) {
			col := 0
			if cfg.IncludeSP {
				mean.add(pi, 0, model.SinglePath(s.topo, s.dbs[0], pat, sc.Workers).MeanNode)
				col = 1
			}
			for ai, db := range s.dbs {
				mean.add(pi, col+ai, model.Throughput(s.topo, db, pat, sc.Workers).MeanNode)
			}
		})
		if err != nil {
			return nil, err
		}
	}
	res.Mean = mean.means()
	return res, nil
}

// eachPattern calls fn with every traffic instance the model evaluates on
// topology sample ti, in order, with the index of its pattern in
// cfg.Patterns. It builds one instance at a time: all-to-all on the
// medium topology is 13M flows.
func (cfg ModelConfig) eachPattern(sc Scale, ti, nTerms int, fn func(pi int, pat traffic.Pattern)) error {
	for pi, name := range cfg.Patterns {
		nInst := sc.PatternSamples
		if name == "all-to-all" {
			nInst = 1 // deterministic pattern
		}
		for inst := 0; inst < nInst; inst++ {
			rng := sc.patternSeed(ti, inst)
			var pat traffic.Pattern
			switch name {
			case "permutation":
				pat = traffic.RandomPermutation(nTerms, rng)
			case "shift":
				pat = traffic.RandomShift(nTerms, rng)
			case "random(X)":
				pat = traffic.RandomX(nTerms, cfg.RandomX, rng)
			case "all-to-all":
				pat = traffic.AllToAll(nTerms)
			default:
				return fmt.Errorf("exp: unknown model pattern %q", name)
			}
			fn(pi, pat)
		}
	}
	return nil
}

// reads returns the switch pairs the model reads on topology sample ti:
// the flow ends of every traffic instance.
func (cfg ModelConfig) reads(sc Scale, topo *jellyfish.Topology, ti int) ([]paths.Pair, error) {
	r := newReadSet(topo, false)
	err := cfg.eachPattern(sc, ti, topo.NumTerminals(), func(_ int, pat traffic.Pattern) { r.addPattern(pat) })
	return r.pairs(), err
}

// Table renders the figure's data as a table (patterns as rows, selectors
// as columns), the textual equivalent of the paper's grouped bar charts.
func (r *ModelFigureResult) Table(title string) *stats.Table {
	return gridTable(title, "Pattern", r.Patterns, r.Selectors, func(pi, si int) string {
		return fmt.Sprintf("%.3f", r.Mean[pi][si])
	})
}
