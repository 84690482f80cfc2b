package exp

import (
	"fmt"

	"repro/internal/jellyfish"
	"repro/internal/ksp"
	"repro/internal/paths"
	"repro/internal/stats"
)

// TopoMetricsRow is one row of Table I.
type TopoMetricsRow struct {
	Params       jellyfish.Params
	SwitchSize   int
	NumSwitches  int
	NumTerminals int
	AvgShortest  float64
	Diameter     int32
}

// TableI computes the topology metrics of the paper's Table I, averaged
// over Scale.TopoSamples instances.
func TableI(paramsList []jellyfish.Params, sc Scale) ([]TopoMetricsRow, error) {
	sc, err := sc.withDefaults()
	if err != nil {
		return nil, err
	}
	rows := make([]TopoMetricsRow, 0, len(paramsList))
	for _, p := range paramsList {
		var avg float64
		var diam int32
		for i := 0; i < sc.TopoSamples; i++ {
			topo, err := sc.buildTopo(p, i)
			if err != nil {
				return nil, err
			}
			m := topo.Metrics(sc.Workers)
			if !m.Connected {
				return nil, fmt.Errorf("exp: %v sample %d disconnected", p, i)
			}
			avg += m.AvgShortestPath
			if m.Diameter > diam {
				diam = m.Diameter
			}
		}
		rows = append(rows, TopoMetricsRow{
			Params:       p,
			SwitchSize:   p.X,
			NumSwitches:  p.N,
			NumTerminals: p.N * (p.X - p.Y),
			AvgShortest:  avg / float64(sc.TopoSamples),
			Diameter:     diam,
		})
	}
	return rows, nil
}

// RenderTableI renders Table I.
func RenderTableI(rows []TopoMetricsRow) *stats.Table {
	t := stats.NewTable("Table I: Jellyfish topologies",
		"Topology", "Switch size", "No. of switches", "No. of compute nodes", "Avg shortest path len.")
	for _, r := range rows {
		t.AddRowf(r.Params.String(), r.SwitchSize, r.NumSwitches, r.NumTerminals,
			fmt.Sprintf("%.2f", r.AvgShortest))
	}
	return t
}

// PathPropsResult holds the per-(topology, selector) path quality metrics
// behind Tables II, III and IV.
type PathPropsResult struct {
	Params []jellyfish.Params
	Algs   []ksp.Algorithm
	K      int
	// Q[p][a] is the quality aggregated over topology samples: AvgLen and
	// DisjointFraction are means, MaxShare is the maximum.
	Q [][]paths.Quality
}

// PathProps analyzes path quality for every topology and selector. With
// Scale.PairSample > 0 a uniform pair sample is analyzed instead of all
// ordered pairs.
func PathProps(paramsList []jellyfish.Params, algs []ksp.Algorithm, sc Scale) (*PathPropsResult, error) {
	sc, err := sc.withDefaults()
	if err != nil {
		return nil, err
	}
	res := &PathPropsResult{Params: paramsList, Algs: algs, K: sc.K}
	for _, p := range paramsList {
		row := make([]paths.Quality, len(algs))
		for i := 0; i < sc.TopoSamples; i++ {
			topo, err := sc.buildTopo(p, i)
			if err != nil {
				return nil, err
			}
			var pairs []paths.Pair
			if sc.PairSample > 0 {
				pairs = paths.SamplePairs(p.N, sc.PairSample, sc.topoSeed(i).Split())
			} else {
				pairs = paths.AllOrderedPairs(p.N)
			}
			for a, alg := range algs {
				var q paths.Quality
				if sc.PathCache == "" {
					q = paths.Analyze(topo.G, ksp.Config{Alg: alg, K: sc.K},
						sc.pathSeed(i, alg), pairs, sc.Workers)
				} else {
					// Cache-backed: load (or build once and store) the
					// packed DB for these exact pairs, then aggregate
					// from it. Same numbers as Analyze, minus the
					// recomputation on repeat runs.
					db, err := sc.pathDBPairs(topo, alg, i, pairs)
					if err != nil {
						return nil, err
					}
					q = paths.AnalyzeDB(db, pairs, sc.Workers)
				}
				row[a].Pairs += q.Pairs
				row[a].AvgLen += q.AvgLen
				row[a].DisjointFraction += q.DisjointFraction
				row[a].AvgPaths += q.AvgPaths
				row[a].Fallbacks += q.Fallbacks
				if q.MaxShare > row[a].MaxShare {
					row[a].MaxShare = q.MaxShare
				}
			}
		}
		for a := range row {
			row[a].AvgLen /= float64(sc.TopoSamples)
			row[a].DisjointFraction /= float64(sc.TopoSamples)
			row[a].AvgPaths /= float64(sc.TopoSamples)
		}
		res.Q = append(res.Q, row)
	}
	return res, nil
}

// table renders one path-quality metric: topologies as rows, selectors
// as columns.
func (r *PathPropsResult) table(title string, cell func(q paths.Quality) string) *stats.Table {
	cols := make([]string, len(r.Algs))
	for a, alg := range r.Algs {
		cols[a] = fmt.Sprintf("%s(%d)", alg, r.K)
	}
	return gridTable(fmt.Sprintf("%s (k = %d)", title, r.K), "Topology", labels("%v", r.Params), cols,
		func(p, a int) string { return cell(r.Q[p][a]) })
}

// TableII renders the average path length table.
func (r *PathPropsResult) TableII() *stats.Table {
	return r.table("Table II: Average path length", func(q paths.Quality) string { return fmt.Sprintf("%.2f", q.AvgLen) })
}

// TableIII renders the percent-disjoint-pairs table.
func (r *PathPropsResult) TableIII() *stats.Table {
	return r.table("Table III: Percentage of switch pairs whose k paths do not share any link",
		func(q paths.Quality) string { return fmt.Sprintf("%.0f%%", 100*q.DisjointFraction) })
}

// TableIV renders the maximum link-sharing table.
func (r *PathPropsResult) TableIV() *stats.Table {
	return r.table("Table IV: Maximum number of times one link is shared by the k paths of one switch pair",
		func(q paths.Quality) string { return fmt.Sprintf("%d", q.MaxShare) })
}
