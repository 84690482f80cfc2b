package routing

import (
	"fmt"

	"repro/internal/graph"
)

// Both simulators back LoadEstimator with OccupancyEstimator over their
// own per-link occupancy (flitsim: committed credit occupancy, appsim:
// queued packets). Hosts that route without a simulation behind them —
// above all the jfserve daemon — need standalone estimators. Three are
// provided, resolvable by name through EstimatorByName:
//
//   - "zero": every path costs 0 (load-oblivious choice; with
//     KSP-adaptive this degenerates to random-of-two);
//   - "hops": a path costs its hop count (prefers shorter candidates,
//     no congestion signal);
//   - "link-load": the UGAL-style estimate over a decaying count of how
//     often each directed first link was recently chosen — the serving
//     analogue of the simulators' queue occupancy.

// OccupancyEstimator is the simulators' congestion signal: the paper's
// UGAL-style (occupancy of the path's first network link) × (hop count)
// over the caller's per-link occupancy slice. Held by pointer, passing it
// as a LoadEstimator allocates nothing. The first link resolves in O(1)
// through a row of the link ids out of the last priced source (n int32,
// not an n² table), rebuilt when the source changes: at most once per
// Choose, whose candidates share a source. Not safe for concurrent use.
type OccupancyEstimator struct {
	g   *graph.Graph
	occ []int32
	src graph.NodeID // the source row describes; -1 before the first call
	row []int32      // row[v] = LinkID(src, v) for every neighbour v of src
}

// NewOccupancyEstimator prices paths of g by occ, indexed by directed link
// id. occ is read on every call, so the caller keeps updating it in place.
func NewOccupancyEstimator(g *graph.Graph, occ []int32) *OccupancyEstimator {
	return &OccupancyEstimator{g: g, occ: occ, src: -1, row: make([]int32, g.NumNodes())}
}

// PathCost implements LoadEstimator: first-link occupancy × hop count.
func (e *OccupancyEstimator) PathCost(p graph.Path) int {
	h := p.Hops()
	if h <= 0 {
		return 0
	}
	return int(e.occ[e.FirstLink(p)]) * h
}

// FirstLink returns the directed link id of the path's first edge,
// LinkID(p[0], p[1]), for a path of at least one hop.
func (e *OccupancyEstimator) FirstLink(p graph.Path) int32 {
	if p[0] != e.src {
		e.src = p[0]
		lo, hi := e.g.LinkRange(e.src)
		for l := lo; l < hi; l++ {
			e.row[e.g.LinkTarget(l)] = l
		}
	}
	return e.row[p[1]]
}

// ZeroEstimator costs every path 0.
type ZeroEstimator struct{}

// PathCost implements LoadEstimator.
func (ZeroEstimator) PathCost(graph.Path) int { return 0 }

// HopEstimator costs a path its hop count.
type HopEstimator struct{}

// PathCost implements LoadEstimator.
func (HopEstimator) PathCost(p graph.Path) int { return p.Hops() }

// LinkLoadEstimator is a self-contained congestion signal for hosts
// that serve route choices without simulating the network: it keeps a
// decaying per-directed-link count of recent choices, and prices a path
// the way the paper's UGAL estimate does — (load of the path's first
// network link) × (hop count), zero-hop paths costing 0. The owner
// feeds it by calling Observe with each chosen path; every decayEvery
// observations all counts are halved, so the signal tracks the recent
// choice mix instead of growing without bound.
//
// Not safe for concurrent use: the owner guards it with the same lock
// that guards the mechanism State (jfserve holds both under its
// per-topology mutex).
type LinkLoadEstimator struct {
	counts     map[uint64]int
	obs        int
	decayEvery int
}

// NewLinkLoadEstimator returns an estimator that halves its counts
// every decayEvery observations (<= 0 selects 4096).
func NewLinkLoadEstimator(decayEvery int) *LinkLoadEstimator {
	if decayEvery <= 0 {
		decayEvery = 4096
	}
	return &LinkLoadEstimator{counts: make(map[uint64]int), decayEvery: decayEvery}
}

func dirLinkKey(u, v graph.NodeID) uint64 {
	return uint64(uint32(u))<<32 | uint64(uint32(v))
}

// PathCost implements LoadEstimator: first-link load × hop count.
func (e *LinkLoadEstimator) PathCost(p graph.Path) int {
	if p.Hops() == 0 {
		return 0
	}
	return e.counts[dirLinkKey(p[0], p[1])] * p.Hops()
}

// Observe records that the path was chosen, incrementing the count of
// every directed link it traverses and decaying all counts when due.
func (e *LinkLoadEstimator) Observe(p graph.Path) {
	for i := 0; i+1 < len(p); i++ {
		e.counts[dirLinkKey(p[i], p[i+1])]++
	}
	e.obs++
	if e.obs >= e.decayEvery {
		e.obs = 0
		for k, v := range e.counts {
			if v <= 1 {
				delete(e.counts, k)
			} else {
				e.counts[k] = v / 2
			}
		}
	}
}

// ObserveLink records one chosen traversal of the directed link u→v,
// for owners that shard estimator state by link source (jfserve's
// stripes): PathCost prices a path by its first link — a link out of
// the path's source — so a sharding owner must land each link's
// increment on the estimator whose PathCost calls read that link.
// Decay runs on the Observe schedule with each link counting as one
// observation.
func (e *LinkLoadEstimator) ObserveLink(u, v graph.NodeID) {
	e.counts[dirLinkKey(u, v)]++
	e.obs++
	if e.obs >= e.decayEvery {
		e.obs = 0
		for k, n := range e.counts {
			if n <= 1 {
				delete(e.counts, k)
			} else {
				e.counts[k] = n / 2
			}
		}
	}
}

// EstimatorByName resolves a standalone estimator name ("zero", "hops"
// or "link-load"). Each call returns a fresh instance, so callers own
// their estimator's state.
func EstimatorByName(name string) (LoadEstimator, error) {
	switch name {
	case "zero":
		return ZeroEstimator{}, nil
	case "hops":
		return HopEstimator{}, nil
	case "link-load":
		return NewLinkLoadEstimator(0), nil
	}
	return nil, fmt.Errorf("routing: unknown estimator %q (valid: zero, hops, link-load)", name)
}
