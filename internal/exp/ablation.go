package exp

import (
	"fmt"

	"repro/internal/flitsim"
	"repro/internal/jellyfish"
	"repro/internal/ksp"
	"repro/internal/model"
	"repro/internal/paths"
	"repro/internal/routing"
	"repro/internal/stats"
	"repro/internal/traffic"
	"repro/internal/xrand"
)

// Ablation experiments isolate the design decisions DESIGN.md calls out:
// how much each heuristic contributes at different k, how UGAL's MIN bias
// changes the adaptive comparison, and how directly the selectors shape
// link-load imbalance.

// KSweepResult holds modeled throughput as a function of k for each
// selector: Mean[kIndex][selector].
type KSweepResult struct {
	Params    jellyfish.Params
	Pattern   string
	Ks        []int
	Selectors []string
	Mean      [][]float64
}

// AblationKSweep evaluates the model throughput of every selector at each
// k in ks, under random shift traffic (the paper's most demanding fixed
// pattern). It quantifies the paper's observation that the heuristics
// matter more as path diversity grows.
func AblationKSweep(params jellyfish.Params, ks []int, sc Scale) (*KSweepResult, error) {
	sc, err := sc.withDefaults()
	if err != nil {
		return nil, err
	}
	for _, k := range ks {
		if k < 1 || k > routing.MaxK {
			return nil, fmt.Errorf("exp: k %d out of range (want 1 to %d)", k, routing.MaxK)
		}
	}
	res := &KSweepResult{
		Params:    params,
		Pattern:   "shift",
		Ks:        ks,
		Selectors: SelectorNames(false),
	}
	res.Mean = make([][]float64, len(ks))
	for ki, k := range ks {
		res.Mean[ki] = make([]float64, len(ksp.Algorithms))
		kc := sc
		kc.K = k
		cfg := ModelConfig{Params: params, Patterns: []string{"shift"}}
		r, err := ModelThroughput(cfg, kc)
		if err != nil {
			return nil, err
		}
		copy(res.Mean[ki], r.Mean[0])
	}
	return res, nil
}

// Table renders the k sweep.
func (r *KSweepResult) Table(title string) *stats.Table {
	return gridTable(title, "k", labels("%d", r.Ks), r.Selectors, func(ki, si int) string {
		return fmt.Sprintf("%.3f", r.Mean[ki][si])
	})
}

// BiasSweepResult holds saturation throughput versus UGAL MIN-bias:
// Sat[biasIndex][mechanism] with mechanisms {UGAL, KSP-UGAL}.
type BiasSweepResult struct {
	Params     jellyfish.Params
	Biases     []int
	Mechanisms []string
	Sat        [][]float64
}

// AblationUGALBias sweeps the additive MIN bias of both UGAL forms under
// random permutation traffic with rEDKSP paths, reproducing the paper's
// "no bias towards MIN or VLB" configuration at bias 0 and quantifying
// what other biases would have done.
func AblationUGALBias(params jellyfish.Params, biases []int, rates []float64, sc Scale) (*BiasSweepResult, error) {
	sc, err := sc.withDefaults()
	if err != nil {
		return nil, err
	}
	if len(rates) == 0 {
		rates = flitsim.Rates(0.1, 1.0, 0.1)
	}
	res := &BiasSweepResult{
		Params:     params,
		Biases:     biases,
		Mechanisms: []string{"UGAL", "KSP-UGAL"},
	}
	// Vanilla UGAL detours at every bias.
	s, err := sc.sample(params, 0, true, []ksp.Algorithm{ksp.REDKSP}, func(topo *jellyfish.Topology, ti int) ([]paths.Pair, error) {
		return FlitConfig{Pattern: "permutation"}.reads(sc, topo, ti, 1, []routing.Mechanism{routing.VanillaUGAL()}, false)
	})
	if err != nil {
		return nil, err
	}
	sampler := traffic.NewFixedSampler(
		traffic.RandomPermutation(s.topo.NumTerminals(), sc.patternSeed(0, 0)))
	// Job (bi, mi) is the saturation search of mechanism mi at bias bi.
	biased := []func(int) routing.Mechanism{routing.VanillaUGALBiased, routing.KSPUGALBiased}
	sat := newMeanGrid(len(biases), len(biased))
	err = runJobs(jobGrid{len(biases), len(biased)}, sc.Workers, func(_ int, j []int) (float64, error) {
		bi, mi := j[0], j[1]
		sat, _ := flitsim.SaturationThroughput(s.flit(0, biased[mi](biases[bi]), sampler, xrand.Mix64(sc.Seed^uint64(bi)<<16^uint64(mi))), rates)
		return sat, nil
	}, func(j []int, v float64) { sat.add(j[0], j[1], v) })
	if err != nil {
		return nil, err
	}
	res.Sat = sat.means()
	return res, nil
}

// Table renders the bias sweep.
func (r *BiasSweepResult) Table(title string) *stats.Table {
	return gridTable(title, "MIN bias", labels("%d", r.Biases), r.Mechanisms, func(bi, mi int) string {
		return fmt.Sprintf("%.3f", r.Sat[bi][mi])
	})
}

// LoadImbalanceResult holds per-selector link-load statistics for one
// pattern: Stats[selector].
type LoadImbalanceResult struct {
	Params    jellyfish.Params
	Pattern   string
	Selectors []string
	Stats     []model.LoadStats
}

// LoadImbalance measures, per selector, how unevenly one random shift
// pattern's sub-flows land on the links — the quantity the paper's
// Section III argues about qualitatively.
func LoadImbalance(params jellyfish.Params, sc Scale) (*LoadImbalanceResult, error) {
	sc, err := sc.withDefaults()
	if err != nil {
		return nil, err
	}
	var pat traffic.Pattern
	s, err := sc.sample(params, 0, false, ksp.Algorithms, func(topo *jellyfish.Topology, _ int) ([]paths.Pair, error) {
		pat = traffic.RandomShift(topo.NumTerminals(), sc.patternSeed(0, 0))
		return patternReads(topo, pat), nil
	})
	if err != nil {
		return nil, err
	}
	res := &LoadImbalanceResult{
		Params:    params,
		Pattern:   pat.Name,
		Selectors: SelectorNames(false),
	}
	for _, db := range s.dbs {
		res.Stats = append(res.Stats, model.LoadImbalance(s.topo, db, pat, sc.Workers))
	}
	return res, nil
}

// Table renders the load-imbalance comparison.
func (r *LoadImbalanceResult) Table(title string) *stats.Table {
	t := stats.NewTable(title, "Selector", "Mean load", "Max load", "P99", "StdDev", "Top-1% share", "Unused links")
	for si, sel := range r.Selectors {
		s := r.Stats[si]
		t.AddRow(sel,
			fmt.Sprintf("%.2f", s.Mean),
			fmt.Sprintf("%.0f", s.Max),
			fmt.Sprintf("%.0f", s.P99),
			fmt.Sprintf("%.2f", s.StdDev),
			fmt.Sprintf("%.3f", s.Top1Share),
			fmt.Sprintf("%d", s.Unused))
	}
	return t
}
