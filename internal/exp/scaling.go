package exp

import (
	"fmt"

	"repro/internal/jellyfish"
	"repro/internal/stats"
)

// ScalingRow is one topology size in a scaling study.
type ScalingRow struct {
	Params      jellyfish.Params
	Terminals   int
	AvgShortest float64
	Diameter    int32
	// Throughput[selector] is the mean modeled per-node throughput for a
	// random permutation.
	Throughput []float64
}

// ScalingStudy evaluates how path structure and modeled throughput evolve
// with system size — the scalability angle of the Jellyfish literature
// (Yuan et al. SC'13) that frames the paper. Each row gets TopoSamples
// instances and PatternSamples permutations.
func ScalingStudy(paramsList []jellyfish.Params, sc Scale) ([]ScalingRow, error) {
	sc, err := sc.withDefaults()
	if err != nil {
		return nil, err
	}
	rows := make([]ScalingRow, 0, len(paramsList))
	for _, p := range paramsList {
		metrics, err := TableI([]jellyfish.Params{p}, sc)
		if err != nil {
			return nil, err
		}
		mt, err := ModelThroughput(ModelConfig{
			Params:   p,
			Patterns: []string{"permutation"},
		}, sc)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ScalingRow{
			Params:      p,
			Terminals:   metrics[0].NumTerminals,
			AvgShortest: metrics[0].AvgShortest,
			Diameter:    metrics[0].Diameter,
			Throughput:  mt.Mean[0],
		})
	}
	return rows, nil
}

// RenderScaling renders the study.
func RenderScaling(rows []ScalingRow) *stats.Table {
	headers := []string{"Topology", "Terminals", "Avg SP", "Diameter"}
	headers = append(headers, SelectorNames(false)...)
	t := stats.NewTable("Scaling study: permutation model throughput vs system size", headers...)
	for _, r := range rows {
		row := []string{
			r.Params.String(),
			fmt.Sprintf("%d", r.Terminals),
			fmt.Sprintf("%.2f", r.AvgShortest),
			fmt.Sprintf("%d", r.Diameter),
		}
		for _, v := range r.Throughput {
			row = append(row, fmt.Sprintf("%.3f", v))
		}
		t.AddRow(row...)
	}
	return t
}

// DefaultScalingSizes is a laptop-friendly size ladder preserving the
// paper's port ratios.
var DefaultScalingSizes = []jellyfish.Params{
	{N: 16, X: 12, Y: 8},
	{N: 32, X: 12, Y: 8},
	{N: 64, X: 12, Y: 8},
	{N: 128, X: 12, Y: 8},
}
