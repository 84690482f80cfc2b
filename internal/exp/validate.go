package exp

import (
	"fmt"

	"repro/internal/fairshare"
	"repro/internal/jellyfish"
	"repro/internal/ksp"
	"repro/internal/stats"
	"repro/internal/traffic"

	"repro/internal/model"
)

// ModelValidationResult compares the paper's Equation-1 throughput model
// against the exact max-min fair allocation an idealized MPTCP converges
// to, per selector: the model is an approximation, and this experiment
// quantifies its error and confirms that selector ordering is not an
// artifact of the approximation.
type ModelValidationResult struct {
	Params    jellyfish.Params
	Pattern   string
	Selectors []string
	// ModelMean[s] and FairMean[s] are per-node throughputs under the two
	// methodologies, averaged over pattern instances.
	ModelMean, FairMean []float64
}

// ValidateModel runs both methodologies on PatternSamples random shift
// instances over one topology sample.
func ValidateModel(params jellyfish.Params, sc Scale) (*ModelValidationResult, error) {
	sc, err := sc.withDefaults()
	if err != nil {
		return nil, err
	}
	topo, err := sc.buildTopo(params, 0)
	if err != nil {
		return nil, err
	}
	res := &ModelValidationResult{
		Params:    params,
		Pattern:   "shift",
		Selectors: SelectorNames(false),
		ModelMean: make([]float64, len(ksp.Algorithms)),
		FairMean:  make([]float64, len(ksp.Algorithms)),
	}
	pats := make([]traffic.Pattern, sc.PatternSamples)
	reads := newReadSet(topo, false)
	for inst := range pats {
		pats[inst] = traffic.RandomShift(topo.NumTerminals(), sc.patternSeed(0, inst))
		reads.addPattern(pats[inst])
	}
	prs := reads.pairs()
	for ai, alg := range ksp.Algorithms {
		db, err := sc.pathDB(topo, alg, 0, prs)
		if err != nil {
			return nil, err
		}
		for _, pat := range pats {
			res.ModelMean[ai] += model.Throughput(topo, db, pat, sc.Workers).MeanNode
			alloc, err := fairshare.Compute(topo, db, pat)
			if err != nil {
				return nil, err
			}
			res.FairMean[ai] += alloc.MeanNode
		}
		res.ModelMean[ai] /= float64(sc.PatternSamples)
		res.FairMean[ai] /= float64(sc.PatternSamples)
	}
	return res, nil
}

// Table renders the comparison with per-selector relative error.
func (r *ModelValidationResult) Table(title string) *stats.Table {
	t := stats.NewTable(title, "Selector", "Eq.1 model", "Max-min fair", "Model error")
	for ai, sel := range r.Selectors {
		errPct := 0.0
		if r.FairMean[ai] > 0 {
			errPct = (r.ModelMean[ai] - r.FairMean[ai]) / r.FairMean[ai] * 100
		}
		t.AddRow(sel,
			fmt.Sprintf("%.3f", r.ModelMean[ai]),
			fmt.Sprintf("%.3f", r.FairMean[ai]),
			fmt.Sprintf("%+.1f%%", errPct))
	}
	return t
}
