// Package exp is the experiment harness: one function per table/figure of
// the paper, mapping the substrate packages (jellyfish, ksp, paths, model,
// flitsim, appsim) onto the paper's exact experimental protocol. The cmd/
// binaries and the root benchmark suite are thin wrappers over this
// package.
//
// Every experiment takes a Scale that controls how much statistical
// repetition to run: the paper's full protocol (10 topology samples, 50
// pattern instances for the model, 10 for the cycle simulator) or any
// cheaper setting for quick runs and benchmarks. All randomness derives
// from Scale.Seed, so every number is reproducible.
package exp

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/jellyfish"
	"repro/internal/ksp"
	"repro/internal/paths"
	"repro/internal/routing"
	"repro/internal/seeds"
	"repro/internal/xrand"
)

// Scale controls experiment effort.
type Scale struct {
	// TopoSamples is the number of RRG instances per topology (paper: 10).
	TopoSamples int
	// PatternSamples is the number of random traffic instances per
	// topology sample (paper: 50 for the model, 10 for Booksim).
	PatternSamples int
	// PairSample bounds the switch pairs analyzed for path-property tables
	// (0 = all ordered pairs; the paper's cluster runs used all pairs, a
	// laptop will want sampling on RRG(2880,48,38)).
	PairSample int
	// K is the paths per pair (paper: 8; 0 = 8; at most routing.MaxK).
	K int
	// Workers bounds parallelism (<= 0 = GOMAXPROCS).
	Workers int
	// Seed derives all randomness.
	Seed uint64
	// PathCache is a directory for the on-disk path-DB cache ("" = off).
	// Off, each run builds its path DBs over exactly the switch pairs it
	// reads. When set, experiments load all-ordered-pairs DBs through
	// paths.LoadOrBuild: the first run on a (topology, selector, k, seed)
	// combination pays the all-pairs build and writes a cache file; every
	// later run streams the packed store back in. See docs/PATHS.md.
	PathCache string
}

// withDefaults rejects negative sample counts and a k outside 0 to
// routing.MaxK, and fills the zero-valued fields. Every experiment entry
// point runs it first.
func (sc Scale) withDefaults() (Scale, error) {
	switch {
	case sc.TopoSamples < 0:
		return sc, fmt.Errorf("exp: topology samples %d out of range (want >= 0)", sc.TopoSamples)
	case sc.PatternSamples < 0:
		return sc, fmt.Errorf("exp: pattern samples %d out of range (want >= 0)", sc.PatternSamples)
	case sc.PairSample < 0:
		return sc, fmt.Errorf("exp: pair sample %d out of range (want >= 0)", sc.PairSample)
	case sc.K < 0 || sc.K > routing.MaxK:
		return sc, fmt.Errorf("exp: k %d out of range (want 0 to %d)", sc.K, routing.MaxK)
	}
	if sc.TopoSamples == 0 {
		sc.TopoSamples = 1
	}
	if sc.PatternSamples == 0 {
		sc.PatternSamples = 1
	}
	if sc.K == 0 {
		sc.K = 8
	}
	if sc.Seed == 0 {
		sc.Seed = 1
	}
	return sc, nil
}

// topoSeed derives the RNG for the i-th topology sample (the shared
// derivation in internal/seeds, so jfserve builds identical graphs).
func (sc Scale) topoSeed(i int) *xrand.RNG {
	return seeds.TopoRNG(sc.Seed, i)
}

// patternSeed derives the RNG for the j-th pattern instance on the i-th
// topology sample.
func (sc Scale) patternSeed(i, j int) *xrand.RNG {
	return xrand.NewPair(xrand.Mix64(sc.Seed^0x706174), uint64(i)<<32|uint64(j))
}

// pathSeed derives the path-DB seed for a selector on the i-th topology
// sample (shared derivation, see internal/seeds).
func (sc Scale) pathSeed(i int, alg ksp.Algorithm) uint64 {
	return seeds.PathSeed(sc.Seed, i, alg)
}

// buildTopo constructs the i-th topology sample.
func (sc Scale) buildTopo(p jellyfish.Params, i int) (*jellyfish.Topology, error) {
	return jellyfish.New(p, sc.topoSeed(i))
}

// numVCs is the VC count of every flit simulation on topo: enough for the
// longest path a non-minimal mechanism can take, so one count serves all
// mechanisms.
func (sc Scale) numVCs(topo *jellyfish.Topology) int {
	return routing.VCBudget(graph.ComputeMetrics(topo.G, sc.Workers).Diameter, true)
}

// pathDB returns the path DB for one selector on the i-th topology
// sample for a run that reads the switch pairs in reads. Without a cache
// directory it is built over exactly those pairs; with Scale.PathCache set it is the
// cached all-ordered-pairs DB (paths.LoadOrBuild), one file serving every
// run on that topology, selector, k and seed. A pair's path set depends
// only on (seed, src, dst), so results do not depend on whether the cache
// is enabled.
func (sc Scale) pathDB(topo *jellyfish.Topology, alg ksp.Algorithm, ti int, reads []paths.Pair) (*paths.DB, error) {
	if sc.PathCache != "" {
		reads = paths.AllOrderedPairs(topo.G.NumNodes())
	}
	return sc.pathDBPairs(topo, alg, ti, reads)
}

// pathDBPairs returns the DB over exactly prs, through the cache when one
// is set, for experiments that precompute an explicit pair list (the
// static fault-resilience sweep, the path-property tables): the cache key
// covers the pair list, so a sampled subset never aliases an all-pairs
// entry.
func (sc Scale) pathDBPairs(topo *jellyfish.Topology, alg ksp.Algorithm, ti int, prs []paths.Pair) (*paths.DB, error) {
	db, _, err := paths.LoadOrBuild(sc.PathCache, topo.G, ksp.Config{Alg: alg, K: sc.K},
		sc.pathSeed(ti, alg), prs, sc.Workers)
	return db, err
}

// WarmPathCache eagerly populates Scale.PathCache with the all-pairs
// DBs the experiments on paramsList would build: one cache file per
// (topology sample, selector). Later jfnet/jfflit/jfapp runs with the
// same -seed, -k and -path-cache then start from cache hits instead of
// all-pairs searches — the intended workflow for the large topology, where
// the build dominates wall time (see docs/PATHS.md).
func WarmPathCache(paramsList []jellyfish.Params, algs []ksp.Algorithm, sc Scale) error {
	sc, err := sc.withDefaults()
	if err != nil {
		return err
	}
	if sc.PathCache == "" {
		return fmt.Errorf("exp: WarmPathCache needs a cache directory")
	}
	for _, p := range paramsList {
		for ti := 0; ti < sc.TopoSamples; ti++ {
			topo, err := sc.buildTopo(p, ti)
			if err != nil {
				return err
			}
			for _, alg := range algs {
				if _, err := sc.pathDB(topo, alg, ti, nil); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// SelectorNames returns the paper's presentation order including the
// single-path baseline used in the model figures.
func SelectorNames(withSP bool) []string {
	names := []string{}
	if withSP {
		names = append(names, "SP")
	}
	for _, a := range ksp.Algorithms {
		names = append(names, a.String())
	}
	return names
}
