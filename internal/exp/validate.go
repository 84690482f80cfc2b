package exp

import (
	"fmt"

	"repro/internal/fairshare"
	"repro/internal/jellyfish"
	"repro/internal/ksp"
	"repro/internal/model"
	"repro/internal/paths"
	"repro/internal/stats"
	"repro/internal/traffic"
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
	pats := make([]traffic.Pattern, sc.PatternSamples)
	s, err := sc.sample(params, 0, false, ksp.Algorithms, func(topo *jellyfish.Topology, _ int) ([]paths.Pair, error) {
		for inst := range pats {
			pats[inst] = traffic.RandomShift(topo.NumTerminals(), sc.patternSeed(0, inst))
		}
		return patternReads(topo, pats...), nil
	})
	if err != nil {
		return nil, err
	}
	// Row 0 holds the model's means, row 1 the fair allocation's.
	mean := newMeanGrid(2, len(ksp.Algorithms))
	for ai, db := range s.dbs {
		for _, pat := range pats {
			mean.add(0, ai, model.Throughput(s.topo, db, pat, sc.Workers).MeanNode)
			alloc, err := fairshare.Compute(s.topo, db, pat)
			if err != nil {
				return nil, err
			}
			mean.add(1, ai, alloc.MeanNode)
		}
	}
	m := mean.means()
	return &ModelValidationResult{
		Params:    params,
		Pattern:   "shift",
		Selectors: SelectorNames(false),
		ModelMean: m[0],
		FairMean:  m[1],
	}, nil
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
