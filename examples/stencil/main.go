// Stencil is a miniature version of the paper's CODES study (Tables V and
// VI): it builds the four stencil workloads as rank-level sized sends,
// replays them over one Jellyfish with KSP(8), rKSP(8) and rEDKSP(8)
// paths under KSP-adaptive routing, and prints the communication times
// with rEDKSP's improvement — for both linear and random process-to-node
// mappings.
package main

import (
	"fmt"
	"log"

	"repro/internal/appsim"
	"repro/internal/jellyfish"
	"repro/internal/ksp"
	"repro/internal/paths"
	"repro/internal/routing"
	"repro/internal/stats"
	"repro/internal/traffic"
	"repro/internal/xrand"
)

func main() {
	params := jellyfish.Params{N: 32, X: 18, Y: 12} // 192 compute nodes
	// Scale the per-rank volume down from the paper's 15 MB so the example
	// finishes in seconds on a laptop; the relative comparison is the
	// point.
	const bytesPerRank = 1_500_000

	topo, err := jellyfish.New(params, xrand.New(7))
	if err != nil {
		log.Fatal(err)
	}
	dbs := map[ksp.Algorithm]*paths.DB{}
	for _, alg := range []ksp.Algorithm{ksp.REDKSP, ksp.KSP, ksp.RKSP} {
		dbs[alg] = paths.BuildAllPairs(topo.G, ksp.Config{Alg: alg, K: 8}, 7, 0)
	}
	nTerms := topo.NumTerminals()

	for _, mapping := range []string{"linear", "random"} {
		table := stats.NewTable(
			fmt.Sprintf("Communication time (ms), %s mapping, %v, %d bytes/rank",
				mapping, params, bytesPerRank),
			"Application", "rEDKSP(8)", "KSP(8)", "imp.", "rKSP(8)", "imp.")
		for _, kind := range traffic.StencilKinds {
			// The paper takes only the stencil pattern and the per-rank
			// volume from its SST/DUMPI traces; traffic.Stencil builds
			// both.
			w := traffic.Stencil(traffic.StencilConfig{Kind: kind, Ranks: nTerms, TotalBytes: bytesPerRank})

			var m traffic.Mapping
			if mapping == "linear" {
				m = traffic.LinearMapping(nTerms)
			} else {
				m = traffic.RandomMapping(nTerms, xrand.New(13))
			}
			flows := w.Apply(m)

			times := map[ksp.Algorithm]float64{}
			for alg, db := range dbs {
				res, err := appsim.Run(appsim.Config{
					Topo:      topo,
					Paths:     db,
					Mechanism: routing.KSPAdaptive(),
					Flows:     flows,
					Seed:      21,
				})
				if err != nil {
					log.Fatal(err)
				}
				times[alg] = res.Seconds
			}
			table.AddRow(kind.String(),
				fmt.Sprintf("%.3f", times[ksp.REDKSP]*1e3),
				fmt.Sprintf("%.3f", times[ksp.KSP]*1e3),
				fmt.Sprintf("%.1f%%", stats.Improvement(times[ksp.KSP], times[ksp.REDKSP])),
				fmt.Sprintf("%.3f", times[ksp.RKSP]*1e3),
				fmt.Sprintf("%.1f%%", stats.Improvement(times[ksp.RKSP], times[ksp.REDKSP])))
		}
		fmt.Println(table.String())
	}
}
