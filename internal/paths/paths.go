// Package paths stores and analyzes the multi-path sets computed by the
// ksp selectors. It provides:
//
//   - DB, an immutable store of the k paths per ordered switch pair, built
//     eagerly in parallel over the pairs its reader will need (all pairs
//     or a subset) or loaded from the on-disk cache, read without locks,
//     with per-pair deterministic randomness so results are independent of
//     worker scheduling and of which other pairs were built;
//   - Quality, the path-quality metrics behind the paper's Tables II-IV:
//     average path length, the percentage of switch pairs whose k paths
//     share no link, and the maximum number of one pair's paths that share
//     a single link.
package paths

import (
	"cmp"
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/graph"
	"repro/internal/ksp"
	"repro/internal/par"
	"repro/internal/xrand"
)

// Pair is an ordered (source switch, destination switch) pair.
type Pair struct {
	Src, Dst graph.NodeID
}

// DB holds the computed path sets of a fixed set of pairs for one graph,
// one selector config and one seed, in a CSR-packed store: one flat node
// arena plus per-pair offsets. A DB never changes after Build or
// ReadCache returns it, so any number of goroutines read it without
// locking.
type DB struct {
	g    *graph.Graph
	cfg  ksp.Config
	seed uint64
	st   *store
}

// Build computes the path sets for the given pairs in parallel
// (workers <= 0 selects the default pool) and packs them into a DB.
// Duplicate pairs are computed once; self pairs are skipped, since Paths
// and Lookup never return one.
//
// Pairs are computed in destination-major order, so a worker's
// consecutive pairs mostly share their destination and its deterministic
// searches reuse one goal-directed ball (see graph.SPEngine); pack
// re-sorts the keys source-major.
func Build(g *graph.Graph, cfg ksp.Config, seed uint64, pairs []Pair, workers int) *DB {
	keys := make([]uint64, 0, len(pairs))
	for _, p := range pairs {
		if p.Src != p.Dst {
			keys = append(keys, graph.PairKey(p.Src, p.Dst))
		}
	}
	slices.SortFunc(keys, func(a, b uint64) int {
		return cmp.Compare(bits.RotateLeft64(a, 32), bits.RotateLeft64(b, 32))
	})
	keys = slices.Compact(keys)
	results := make([][]graph.Path, len(keys))
	fallbacks := 0
	par.MapReduce(len(keys), workers,
		func() *ksp.Computer { return ksp.NewComputer(g, cfg, xrand.New(seed)) },
		func(i int, c *ksp.Computer) {
			results[i] = computePair(c, seed, graph.NodeID(keys[i]>>32), graph.NodeID(uint32(keys[i])))
		},
		func(c *ksp.Computer) { fallbacks += c.Fallbacks() })
	return &DB{g: g, cfg: cfg, seed: seed, st: pack(g.NumNodes(), keys, results, fallbacks, workers)}
}

// BuildAllPairs computes path sets for every ordered switch pair.
func BuildAllPairs(g *graph.Graph, cfg ksp.Config, seed uint64, workers int) *DB {
	return Build(g, cfg, seed, AllOrderedPairs(g.NumNodes()), workers)
}

// computePair computes the pair's path set with per-pair deterministic
// randomness: the computer's RNG is reseeded from (seed, src, dst), so
// the result does not depend on which worker or call order produced it.
//
// This is the seed-splitting scheme of every DB and of Analyze. The base
// seed is not consumed sequentially — doing so would make each pair's
// paths depend on how the preceding pairs were scheduled across workers.
// Instead every pair gets its own PCG stream keyed (seed, graph.PairKey(src,
// dst)): the 64-bit pair key (src in the high word, dst in the low) is
// the second seed word, and the PCG initializer mixes both words, so
// streams for different pairs are statistically independent. Builds with
// workers=1 or workers=N, builds over any pair set that includes the
// pair, Analyze, and fault-time repair on a filtered graph all reproduce
// the identical path set for a pair.
func computePair(c *ksp.Computer, seed uint64, src, dst graph.NodeID) []graph.Path {
	c.Reseed(seed, graph.PairKey(src, dst))
	return c.Paths(src, dst)
}

// Graph returns the graph the DB routes on.
func (db *DB) Graph() *graph.Graph { return db.g }

// Config returns the selector configuration.
func (db *DB) Config() ksp.Config { return db.cfg }

// Seed returns the DB's base seed. Together with Config and Graph it is
// everything needed to recompute any pair's set identically — the fault
// machinery uses it to repair path sets on a failed-edge-filtered graph
// (see internal/faults.RepairConfig).
func (db *DB) Seed() uint64 { return db.seed }

// K returns the configured number of paths per pair.
func (db *DB) K() int { return db.cfg.K }

// NumPairs returns how many pairs the DB stores.
func (db *DB) NumPairs() int { return len(db.st.keys) }

// Fallbacks returns the number of stored pairs that needed the
// edge-disjoint top-up fallback.
func (db *DB) Fallbacks() int { return db.st.fallbacks }

// Paths returns the stored path set for (src, dst), or nil for a self
// pair. The returned slice is shared and must not be modified.
//
// Paths panics, naming the pair, on any other pair the DB was not built
// with: the simulators and the throughput model read an empty set as
// "unroutable" or "same switch", so answering nil there would silently
// drop packets under faults or model a network flow as local. Callers
// that may probe absent pairs — above all the jfserve daemon — use
// Lookup.
func (db *DB) Paths(src, dst graph.NodeID) []graph.Path {
	if src == dst {
		return nil
	}
	i := db.st.find(src, dst)
	if i < 0 {
		panic(fmt.Sprintf("paths: pair %d->%d is not in this DB (%d pairs over %d switches): build the DB over every pair its reader reads",
			src, dst, db.NumPairs(), db.g.NumNodes()))
	}
	return db.st.pair(i)
}

// Typed lookup errors. Lookup reports why a pair has no usable path set
// instead of panicking (Paths) or returning an empty one, so callers that
// must tell the cases apart — above all the jfserve daemon, which turns
// each into a distinct protocol error code — use it.
var (
	// ErrSelfPair marks a lookup of a (s, s) pair, which has no network
	// path by definition.
	ErrSelfPair = errors.New("paths: self pair has no network path")
	// ErrOutOfRange marks a switch id outside the DB's graph.
	ErrOutOfRange = errors.New("paths: switch id out of range")
	// ErrNotStored marks a pair the DB was not built with.
	ErrNotStored = errors.New("paths: pair not stored")
	// ErrNoPath marks a pair that is stored but whose path set is empty
	// (the selector found no route — only possible on disconnected
	// graphs).
	ErrNoPath = errors.New("paths: pair has no path")
)

// Lookup returns the stored path set for (src, dst), reporting why a
// lookup fails through typed errors (ErrSelfPair, ErrOutOfRange,
// ErrNotStored, ErrNoPath) instead of returning an empty or zero-value
// path set. The returned slice is shared and must not be modified.
func (db *DB) Lookup(src, dst graph.NodeID) ([]graph.Path, error) {
	n := graph.NodeID(db.g.NumNodes())
	if src < 0 || src >= n || dst < 0 || dst >= n {
		return nil, fmt.Errorf("%w: pair %d->%d on %d switches", ErrOutOfRange, src, dst, n)
	}
	if src == dst {
		return nil, fmt.Errorf("%w: %d->%d", ErrSelfPair, src, dst)
	}
	i := db.st.find(src, dst)
	if i < 0 {
		return nil, fmt.Errorf("%w: pair %d->%d", ErrNotStored, src, dst)
	}
	ps := db.st.pair(i)
	if len(ps) == 0 {
		return nil, fmt.Errorf("%w: pair %d->%d", ErrNoPath, src, dst)
	}
	return ps, nil
}

// AllOrderedPairs enumerates every (s, d) with s != d over n switches.
func AllOrderedPairs(n int) []Pair {
	out := make([]Pair, 0, n*(n-1))
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s != d {
				out = append(out, Pair{graph.NodeID(s), graph.NodeID(d)})
			}
		}
	}
	return out
}

// SamplePairs draws count distinct ordered pairs (s != d) uniformly at
// random. If count exceeds the number of distinct pairs it returns all of
// them.
func SamplePairs(n, count int, rng *xrand.RNG) []Pair {
	total := n * (n - 1)
	if count >= total {
		return AllOrderedPairs(n)
	}
	idx := rng.SampleK(total, count)
	out := make([]Pair, len(idx))
	for i, v := range idx {
		s := v / (n - 1)
		d := v % (n - 1)
		if d >= s {
			d++
		}
		out[i] = Pair{graph.NodeID(s), graph.NodeID(d)}
	}
	return out
}

// Quality aggregates the path-quality metrics of Tables II, III and IV.
type Quality struct {
	// Pairs is the number of (connected) pairs analyzed.
	Pairs int
	// AvgLen is the mean hop count over every path of every pair
	// (Table II).
	AvgLen float64
	// DisjointFraction is the fraction of pairs whose paths share no
	// undirected link (Table III).
	DisjointFraction float64
	// MaxShare is the maximum, over pairs, of the number of one pair's
	// paths that traverse a single undirected link (Table IV). 1 means
	// fully disjoint.
	MaxShare int
	// AvgPaths is the mean number of paths per pair (== k unless the
	// selector ran out of paths).
	AvgPaths float64
	// Fallbacks counts pairs that used the edge-disjoint top-up fallback.
	Fallbacks int
}

// Analyze computes path sets for the given pairs under cfg and aggregates
// their quality metrics, in parallel.
func Analyze(g *graph.Graph, cfg ksp.Config, seed uint64, pairs []Pair, workers int) Quality {
	return analyze(pairs, workers,
		func() *ksp.Computer { return ksp.NewComputer(g, cfg, xrand.New(seed)) },
		func(c *ksp.Computer, p Pair) []graph.Path { return computePair(c, seed, p.Src, p.Dst) },
		(*ksp.Computer).Fallbacks)
}

// AnalyzeDB aggregates the same quality metrics as Analyze from an
// existing DB — typically one loaded from the on-disk cache via
// LoadOrBuild — so the path-property tables can reuse a stored
// computation instead of re-running the selectors. Every pair must be
// stored in the DB (Paths panics otherwise); per-pair reseeding makes
// the metrics those of Analyze. Fallbacks reports the DB's own
// build-time accounting.
func AnalyzeDB(db *DB, pairs []Pair, workers int) Quality {
	q := analyze(pairs, workers,
		func() *DB { return db },
		func(db *DB, p Pair) []graph.Path { return db.Paths(p.Src, p.Dst) },
		func(*DB) int { return 0 })
	q.Fallbacks = db.Fallbacks()
	return q
}

// analyze aggregates the quality metrics of pairs' path sets in parallel.
// Each worker makes its own path source with newSource and reads a pair's
// paths through pathsOf; fallbacks reads a finished worker's count of
// fallback pairs.
func analyze[S any](pairs []Pair, workers int, newSource func() S,
	pathsOf func(S, Pair) []graph.Path, fallbacks func(S) int) Quality {
	type acc struct {
		src       S
		scratch   map[uint64]int
		pathCount int64
		hopCount  int64
		pairs     int
		disjoint  int
		maxShare  int
	}
	var q Quality
	var totHops, totPaths int64
	par.MapReduce(len(pairs), workers,
		func() *acc {
			return &acc{src: newSource(), scratch: make(map[uint64]int, 64)}
		},
		func(i int, a *acc) {
			ps := pathsOf(a.src, pairs[i])
			if len(ps) == 0 {
				return
			}
			a.pairs++
			share := pairMaxShare(ps, a.scratch)
			if share <= 1 {
				a.disjoint++
			}
			if share > a.maxShare {
				a.maxShare = share
			}
			for _, path := range ps {
				a.pathCount++
				a.hopCount += int64(path.Hops())
			}
		},
		func(a *acc) {
			q.Pairs += a.pairs
			q.Fallbacks += fallbacks(a.src)
			totHops += a.hopCount
			totPaths += a.pathCount
			q.DisjointFraction += float64(a.disjoint) // running count, normalized below
			if a.maxShare > q.MaxShare {
				q.MaxShare = a.maxShare
			}
		})
	if totPaths > 0 {
		q.AvgLen = float64(totHops) / float64(totPaths)
	}
	if q.Pairs > 0 {
		q.DisjointFraction /= float64(q.Pairs)
		q.AvgPaths = float64(totPaths) / float64(q.Pairs)
	}
	return q
}

// MaxShare returns the maximum number of the given paths that traverse
// any single undirected link (1 = fully link-disjoint, 0 for an empty
// set) — the per-pair quantity behind Table IV, exposed for callers
// that analyze one pair at a time (e.g. jfserve's estimate endpoint).
func MaxShare(ps []graph.Path) int {
	return pairMaxShare(ps, make(map[uint64]int, 64))
}

// pairMaxShare returns the maximum number of the pair's paths that use any
// single undirected link. scratch is reused across calls.
func pairMaxShare(ps []graph.Path, scratch map[uint64]int) int {
	clear(scratch)
	maxShare := 0
	for _, p := range ps {
		for i := 0; i+1 < len(p); i++ {
			k := graph.UndirectedEdgeKey(p[i], p[i+1])
			scratch[k]++
			if scratch[k] > maxShare {
				maxShare = scratch[k]
			}
		}
	}
	return maxShare
}
