// Faulttolerance demonstrates the reliability angle of disjoint paths:
// it archives a Jellyfish instance to disk, fails increasing numbers of
// random links, and reports — per path-selection scheme — how many switch
// pairs still have a usable precomputed path and how many of the k paths
// survive, without any re-routing. Edge-disjoint sets lose at most one
// path per failed link; vanilla KSP's clustered paths can lose most of the
// set at once.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/exp"
	"repro/internal/graph"
	"repro/internal/jellyfish"
	"repro/internal/ksp"
	"repro/internal/xrand"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	params := jellyfish.Params{N: 48, X: 18, Y: 12}
	topo, err := jellyfish.New(params, xrand.New(2021))
	if err != nil {
		return err
	}

	// Archive the exact instance, so the numbers below are tied to a
	// reloadable artifact. The demo keeps it only while it runs.
	dir, err := os.MkdirTemp("", "jellyfish-fault-demo-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "jellyfish-fault-demo.jf")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := topo.Write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("archived %v (%d links) to %s\n\n", params, topo.G.NumEdges(), filepath.Base(path))

	// How redundant is the raw topology? Max-flow says every pair has
	// exactly y edge-disjoint paths.
	minFlow := -1
	rng := xrand.New(4)
	for i := 0; i < 50; i++ {
		s, d := rng.TwoDistinct(params.N)
		flow := graph.MaxEdgeDisjointPaths(topo.G, graph.NodeID(s), graph.NodeID(d))
		if minFlow < 0 || flow < minFlow {
			minFlow = flow
		}
	}
	fmt.Printf("max-flow check over 50 random pairs: every pair has >= %d edge-disjoint paths (y = %d)\n\n",
		minFlow, params.Y)

	// Survival study across the four selectors.
	res, err := exp.FaultResilience(params, []int{0, 1, 2, 4, 8, 16, 32}, exp.Scale{
		K:              8,
		Seed:           7,
		PairSample:     800,
		PatternSamples: 5, // failure-set trials
	})
	if err != nil {
		return err
	}
	fmt.Println(res.Table("Fraction of pairs with at least one surviving path").String())
	fmt.Println(res.PathsTable("Mean surviving paths per pair (of k=8)").String())

	// The punchline pair: find a vanilla-KSP pair whose paths collapse
	// under a single failure.
	c := ksp.NewComputer(topo.G, ksp.Config{Alg: ksp.KSP, K: 8}, nil)
	var worstPair [2]graph.NodeID
	worst := 0
	for s := graph.NodeID(0); int(s) < params.N; s += 3 {
		for d := graph.NodeID(1); int(d) < params.N; d += 5 {
			if s == d {
				continue
			}
			share := maxShare(c.Paths(s, d))
			if share > worst {
				worst = share
				worstPair = [2]graph.NodeID{s, d}
			}
		}
	}
	fmt.Printf("worst sampled KSP pair %d->%d: one link failure can kill %d of its 8 paths at once\n",
		worstPair[0], worstPair[1], worst)
	return nil
}

func maxShare(ps []graph.Path) int {
	counts := map[uint64]int{}
	best := 0
	for _, p := range ps {
		for i := 0; i+1 < len(p); i++ {
			k := graph.UndirectedEdgeKey(p[i], p[i+1])
			counts[k]++
			if counts[k] > best {
				best = counts[k]
			}
		}
	}
	return best
}
