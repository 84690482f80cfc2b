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
// feeds it by calling ObserveLink for each link of each chosen path;
// every linkLoadDecay observations all counts are halved, so the signal
// tracks the recent choice mix instead of growing without bound.
//
// The counts live in a flat open-addressed table keyed by the directed
// (u, v) pair: linear probing over a power-of-two slot count, grown by
// doubling to stay at most half full. A link keeps its slot once
// observed, and decay takes its count to 0 rather than out of the
// table, so the table holds at most the graph's directed links and a
// price or an observation costs one hash and a short probe, never a
// map operation.
//
// Not safe for concurrent use: the owner guards it with the same lock
// that guards the mechanism State (jfserve holds both under its
// per-stripe mutex).
type LinkLoadEstimator struct {
	slots []linkSlot
	shift uint // 64 - log2(len(slots)): the hash's top bits pick the home slot
	used  int  // slots holding a link
	obs   int
}

// linkSlot is one directed link's decaying count. A count never
// exceeds 2·linkLoadDecay (a period adds at most linkLoadDecay to a
// count that decay then halves), so int32 holds it.
type linkSlot struct {
	key  uint64 // graph.PairKey(u, v)
	n    int32
	used bool
}

// linkLoadDecay is the number of link observations between two halvings
// of a LinkLoadEstimator's counts.
const linkLoadDecay = 4096

// NewLinkLoadEstimator returns an estimator with no load recorded.
func NewLinkLoadEstimator() *LinkLoadEstimator {
	return &LinkLoadEstimator{slots: make([]linkSlot, 2), shift: 63}
}

// slot returns the index of key's slot, or of the empty slot where key
// would go. Fibonacci hashing spreads the (u, v) keys, whose low and
// high words are small switch ids, over the whole table; the table is
// never more than half full, so the probe always ends.
func (e *LinkLoadEstimator) slot(key uint64) int {
	mask := len(e.slots) - 1
	i := int((key * 0x9e3779b97f4a7c15) >> e.shift)
	for {
		if s := &e.slots[i]; !s.used || s.key == key {
			return i
		}
		i = (i + 1) & mask
	}
}

// PathCost implements LoadEstimator: first-link load × hop count.
func (e *LinkLoadEstimator) PathCost(p graph.Path) int {
	h := p.Hops()
	if h <= 0 {
		return 0
	}
	return int(e.slots[e.slot(graph.PairKey(p[0], p[1]))].n) * h
}

// ObserveLink records one chosen traversal of the directed link u→v and
// halves all counts every linkLoadDecay calls. PathCost prices a path
// by its first link, a link out of the path's source, so an owner that
// shards estimator state by link source (jfserve's stripes) lands each
// link's increment on the estimator whose PathCost calls read that
// link.
func (e *LinkLoadEstimator) ObserveLink(u, v graph.NodeID) {
	key := graph.PairKey(u, v)
	i := e.slot(key)
	if !e.slots[i].used {
		if 2*(e.used+1) > len(e.slots) {
			e.grow()
			i = e.slot(key)
		}
		e.slots[i] = linkSlot{key: key, used: true}
		e.used++
	}
	e.slots[i].n++
	e.obs++
	if e.obs < linkLoadDecay {
		return
	}
	e.obs = 0
	for i := range e.slots {
		e.slots[i].n /= 2
	}
}

// grow doubles the table and rehashes every link into it.
func (e *LinkLoadEstimator) grow() {
	old := e.slots
	e.slots = make([]linkSlot, 2*len(old))
	e.shift--
	for _, s := range old {
		if s.used {
			e.slots[e.slot(s.key)] = s
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
		return NewLinkLoadEstimator(), nil
	}
	return nil, fmt.Errorf("routing: unknown estimator %q (valid: zero, hops, link-load)", name)
}
