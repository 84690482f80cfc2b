package exp

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/jellyfish"
	"repro/internal/par"
	"repro/internal/paths"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// DisjointExistenceResult verifies the paper's Section III-A claim that
// "with k = 8 and k = 16, edge-disjoint paths between all pairs of
// switches exist in all of the topologies": for sampled (or all) pairs it
// computes the exact max-flow number of edge-disjoint paths and reports
// the minimum, plus the fraction of pairs meeting each k.
type DisjointExistenceResult struct {
	Params jellyfish.Params
	Pairs  int
	// MinDisjoint is the smallest max-flow value over the pairs; the claim
	// holds for every k <= MinDisjoint.
	MinDisjoint int
	// MeetsK[i] is the fraction of pairs with at least Ks[i] disjoint paths.
	Ks     []int
	MeetsK []float64
}

// DisjointExistence runs the verification. With Scale.PairSample == 0 all
// ordered pairs are checked (use sampling on the large topology).
func DisjointExistence(params jellyfish.Params, ks []int, sc Scale) (*DisjointExistenceResult, error) {
	sc, err := sc.withDefaults()
	if err != nil {
		return nil, err
	}
	topo, err := sc.buildTopo(params, 0)
	if err != nil {
		return nil, err
	}
	var prs []paths.Pair
	if sc.PairSample > 0 {
		prs = paths.SamplePairs(params.N, sc.PairSample, xrand.New(sc.Seed^0xd15))
	} else {
		prs = paths.AllOrderedPairs(params.N)
	}
	flows := make([]int, len(prs))
	par.For(len(prs), sc.Workers, func(i int) {
		flows[i] = graph.MaxEdgeDisjointPaths(topo.G, prs[i].Src, prs[i].Dst)
	})
	res := &DisjointExistenceResult{Params: params, Pairs: len(prs), Ks: ks}
	res.MinDisjoint = flows[0]
	for _, f := range flows {
		if f < res.MinDisjoint {
			res.MinDisjoint = f
		}
	}
	for _, k := range ks {
		meet := 0
		for _, f := range flows {
			if f >= k {
				meet++
			}
		}
		res.MeetsK = append(res.MeetsK, float64(meet)/float64(len(prs)))
	}
	return res, nil
}

// Table renders the verification.
func (r *DisjointExistenceResult) Table(title string) *stats.Table {
	t := stats.NewTable(title, "k", "Pairs with >= k disjoint paths")
	for i, k := range r.Ks {
		t.AddRow(fmt.Sprintf("%d", k), fmt.Sprintf("%.2f%%", 100*r.MeetsK[i]))
	}
	t.AddRow("min over pairs", fmt.Sprintf("%d", r.MinDisjoint))
	return t
}
