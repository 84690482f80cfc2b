package exp

import (
	"fmt"

	"repro/internal/flitsim"
	"repro/internal/jellyfish"
	"repro/internal/ksp"
	"repro/internal/model"
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
		if k < 1 {
			return nil, fmt.Errorf("exp: k %d out of range (want >= 1)", k)
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
	headers := append([]string{"k"}, r.Selectors...)
	t := stats.NewTable(title, headers...)
	for ki, k := range r.Ks {
		row := []string{fmt.Sprintf("%d", k)}
		for si := range r.Selectors {
			row = append(row, fmt.Sprintf("%.3f", r.Mean[ki][si]))
		}
		t.AddRow(row...)
	}
	return t
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
	topo, err := sc.buildTopo(params, 0)
	if err != nil {
		return nil, err
	}
	numVC := sc.numVCs(topo)
	// Vanilla UGAL detours at every bias.
	reads, err := FlitConfig{Pattern: "permutation"}.reads(sc, topo, 0, 1, []routing.Mechanism{routing.VanillaUGAL()}, false)
	if err != nil {
		return nil, err
	}
	db, err := sc.pathDB(topo, ksp.REDKSP, 0, reads)
	if err != nil {
		return nil, err
	}
	sampler := traffic.NewFixedSampler(
		traffic.RandomPermutation(topo.NumTerminals(), sc.patternSeed(0, 0)))
	res.Sat = make([][]float64, len(biases))
	for bi, bias := range biases {
		res.Sat[bi] = make([]float64, 2)
		for mi, mech := range []routing.Mechanism{
			routing.VanillaUGALBiased(bias), routing.KSPUGALBiased(bias),
		} {
			base := flitsim.Config{
				Topo:      topo,
				Paths:     db,
				Mechanism: mech,
				Traffic:   sampler,
				NumVCs:    numVC,
				Seed:      xrand.Mix64(sc.Seed ^ uint64(bi)<<16 ^ uint64(mi)),
			}
			res.Sat[bi][mi] = saturationSeq(base, rates)
		}
	}
	return res, nil
}

// Table renders the bias sweep.
func (r *BiasSweepResult) Table(title string) *stats.Table {
	headers := append([]string{"MIN bias"}, r.Mechanisms...)
	t := stats.NewTable(title, headers...)
	for bi, b := range r.Biases {
		row := []string{fmt.Sprintf("%d", b)}
		for mi := range r.Mechanisms {
			row = append(row, fmt.Sprintf("%.3f", r.Sat[bi][mi]))
		}
		t.AddRow(row...)
	}
	return t
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
	topo, err := sc.buildTopo(params, 0)
	if err != nil {
		return nil, err
	}
	pat := traffic.RandomShift(topo.NumTerminals(), sc.patternSeed(0, 0))
	res := &LoadImbalanceResult{
		Params:    params,
		Pattern:   pat.Name,
		Selectors: SelectorNames(false),
	}
	reads := newReadSet(topo, false)
	reads.addPattern(pat)
	prs := reads.pairs()
	for _, alg := range ksp.Algorithms {
		db, err := sc.pathDB(topo, alg, 0, prs)
		if err != nil {
			return nil, err
		}
		res.Stats = append(res.Stats, model.LoadImbalance(topo, db, pat, sc.Workers))
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
