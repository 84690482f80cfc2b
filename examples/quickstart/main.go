// Quickstart: build a Jellyfish network, compute the paper's rEDKSP
// multi-paths, inspect their quality, and run a short adaptive-routing
// simulation — the 60-second tour of the library.
package main

import (
	"fmt"
	"log"

	"repro/internal/flitsim"
	"repro/internal/jellyfish"
	"repro/internal/ksp"
	"repro/internal/model"
	"repro/internal/paths"
	"repro/internal/routing"
	"repro/internal/traffic"
	"repro/internal/xrand"
)

func main() {
	const seed = 42
	// A small Jellyfish: 36 switches with 24 ports each, 16 of which
	// connect to other switches — the paper's RRG(36,24,16), 288 compute
	// nodes.
	topo, err := jellyfish.New(jellyfish.Small, xrand.New(seed))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("built %v: %d switches, %d compute nodes, %d links\n",
		topo.Params(), topo.N, topo.NumTerminals(), topo.G.NumEdges())

	// rEDKSP (randomized edge-disjoint KSP, the paper's best) with k = 8
	// paths for every ordered switch pair, built in parallel up front.
	db := paths.BuildAllPairs(topo.G, ksp.Config{Alg: ksp.REDKSP, K: 8}, seed, 0)

	// The k paths between two compute nodes (resolved to their switches).
	ps := db.Paths(topo.SwitchOf(0), topo.SwitchOf(250))
	fmt.Printf("\n%d candidate paths from node 0 to node 250:\n", len(ps))
	for i, p := range ps {
		fmt.Printf("  path %d (%d hops): %v\n", i, p.Hops(), p)
	}

	// Path quality: with rEDKSP every pair's paths are link-disjoint.
	q := paths.AnalyzeDB(db, paths.AllOrderedPairs(topo.N), 0)
	fmt.Printf("\npath quality over %d pairs: avg length %.2f, %.0f%% disjoint pairs, max link sharing %d\n",
		q.Pairs, q.AvgLen, 100*q.DisjointFraction, q.MaxShare)

	// Throughput model (Equation 1) for a random permutation.
	pat := traffic.RandomPermutation(topo.NumTerminals(), xrand.New(7))
	r := model.Throughput(topo, db, pat, 0)
	sp := model.SinglePath(topo, db, pat, 0)
	fmt.Printf("\nmodel throughput (permutation): multi-path %.3f vs single-path %.3f\n",
		r.MeanNode, sp.MeanNode)

	// A short cycle-level simulation with the paper's KSP-adaptive
	// routing mechanism at 40% offered load.
	res := flitsim.New(flitsim.Config{
		Topo:          topo,
		Paths:         db,
		Mechanism:     routing.KSPAdaptive(),
		Traffic:       traffic.NewFixedSampler(pat),
		InjectionRate: 0.4,
		Seed:          seed,
	}).Run()
	fmt.Printf("\nsimulation at 0.40 load: avg packet latency %.1f cycles, delivered rate %.3f, saturated=%v\n",
		res.AvgLatency, res.DeliveredRate, res.Saturated)
}
