package graph

import (
	"repro/internal/xrand"
)

// TieBreak selects how a shortest-path search chooses among equally short
// alternatives. This is the knob behind the paper's KSP-vs-rKSP distinction.
type TieBreak int

const (
	// TieDeterministic reproduces the textbook bias the paper analyses:
	// nodes are explored in ascending id order, and a node keeps the first
	// (smallest-id) predecessor that discovers it. Repeated searches return
	// the identical path.
	TieDeterministic TieBreak = iota
	// TieRandom explores each frontier in random order and picks a
	// predecessor uniformly among all equal-distance discoverers via
	// reservoir sampling, so equally short paths are sampled without the
	// node-id bias.
	TieRandom
)

// SPEngine runs repeated single-pair shortest-path searches on one graph
// with O(1) reset cost. It supports banning nodes and (directed or
// undirected) edges, which is how Yen's algorithm and the Remove-Find
// method express their temporary graph modifications without copying the
// graph.
//
// Search state is one packed word per node in each of two arrays:
// mark[v] = epoch<<32 | level says that v was reached at hop distance
// level in the search numbered epoch, and pred[v] = parent<<32 | ties
// holds v's chosen predecessor and how many equal-distance discoverers
// have voted for it. A node is undiscovered in the current search exactly
// when mark[v] < epoch<<32, so a new search is one increment of epoch. A
// banned node is pre-marked at the start of every search as reached at
// level banLevel, which no search reaches: it then reads as discovered and
// never as a tie, and the scan needs no per-node ban load. Directed link l
// (its CSR arena position) is banned when linkBan[l] == banCur, and
// ClearBans is one increment of banCur plus truncating the banned-node
// list. When a counter wraps, its array is cleared and it restarts at 1,
// since marks left 2^32 epochs ago would otherwise read as current.
//
// An SPEngine is not safe for concurrent use; parallel workers each create
// their own engine over the shared immutable Graph.
type SPEngine struct {
	g   *Graph
	tie TieBreak
	rng *xrand.RNG

	mark  []uint64 // per node: search epoch << 32 | level
	pred  []uint64 // per node: parent << 32 | tie count
	epoch uint32

	bannedNodes []NodeID // node bans since ClearBans, pre-marked per search
	linkBan     []uint32 // per directed link
	banCur      uint32

	queue []NodeID // per node: the current search's nodes in discovery order
}

// banLevel is the level a banned node is pre-marked at; searches never get
// that deep, since a level is below the node count.
const banLevel = 1<<32 - 1

// NewSPEngine returns an engine over g. rng is required for TieRandom and
// ignored for TieDeterministic.
func NewSPEngine(g *Graph, tie TieBreak, rng *xrand.RNG) *SPEngine {
	if tie == TieRandom && rng == nil {
		panic("graph: TieRandom requires an RNG")
	}
	n := g.NumNodes()
	return &SPEngine{
		g:       g,
		tie:     tie,
		rng:     rng,
		mark:    make([]uint64, n),
		pred:    make([]uint64, n),
		queue:   make([]NodeID, n),
		linkBan: make([]uint32, len(g.nbr)),
		banCur:  1,
	}
}

// BanNode excludes u from subsequent searches until ClearBans.
func (e *SPEngine) BanNode(u NodeID) { e.bannedNodes = append(e.bannedNodes, u) }

// BanDirectedEdge excludes traversals u→v (but not v→u) until ClearBans.
// Banning a non-edge is a no-op.
func (e *SPEngine) BanDirectedEdge(u, v NodeID) {
	if l := e.g.LinkID(u, v); l >= 0 {
		e.linkBan[l] = e.banCur
	}
}

// BanUndirectedEdge excludes the edge {u, v} in both directions until
// ClearBans. Banning a non-edge is a no-op.
func (e *SPEngine) BanUndirectedEdge(u, v NodeID) {
	if l := e.g.LinkID(u, v); l >= 0 {
		e.linkBan[l] = e.banCur
		e.linkBan[e.g.rev[l]] = e.banCur
	}
}

// ClearBans removes all node and edge bans in O(1), plus one clear of the
// link-ban array every 2^32 calls, when banCur wraps.
func (e *SPEngine) ClearBans() {
	e.bannedNodes = e.bannedNodes[:0]
	e.banCur++
	if e.banCur == 0 {
		clear(e.linkBan)
		e.banCur = 1
	}
}

// ShortestPath returns a shortest src→dst path respecting current bans, and
// whether one exists. With TieDeterministic the same arguments always yield
// the same path, and the search stops as soon as dst is first discovered:
// a node keeps its first discoverer, so dst's parent chain is final then.
// With TieRandom ties are broken randomly, and the search finishes dst's
// level: every equal-distance predecessor of dst gets its vote, and the
// random numbers a search draws do not depend on when dst is reached.
//
// A banned src or dst makes the search fail.
func (e *SPEngine) ShortestPath(src, dst NodeID) (Path, bool) {
	if !e.search(src, dst, e.tie == TieRandom) {
		return nil, false
	}
	n := uint32(e.mark[dst]) + 1
	p := make(Path, n)
	u := dst
	for i := int(n) - 1; i >= 0; i-- {
		p[i] = u
		u = NodeID(e.pred[u] >> 32)
	}
	if p[0] != src {
		panic("graph: path extraction lost the source")
	}
	return p, true
}

// AllDistancesFrom fills dist with hop distances from src to every node,
// using -1 for unreachable nodes. Bans are respected. dist must have length
// NumNodes. It draws no random numbers, whatever the engine's tie mode.
//
// It runs its own scan over the search state rather than search's loop:
// whole-graph scans are ComputeMetrics' entire cost, and they ran about
// 1.4 times slower through search's loop.
func (e *SPEngine) AllDistancesFrom(src NodeID, dist []int32) {
	if len(dist) != e.g.NumNodes() {
		panic("graph: dist slice has wrong length")
	}
	for i := range dist {
		dist[i] = -1
	}
	cur := e.begin()
	if e.mark[src] == cur|banLevel {
		return
	}
	e.mark[src] = cur
	dist[src] = 0
	e.queue[0] = src
	head, tail := 0, 1
	for level := int32(0); head < tail; level++ {
		for end := tail; head < end; head++ {
			u := e.queue[head]
			lo, hi := e.g.start[u], e.g.start[u+1]
			bans := e.linkBan[lo:hi]
			for i, v := range e.g.nbr[lo:hi] {
				if e.mark[v] >= cur || bans[i] == e.banCur {
					continue
				}
				e.mark[v] = cur | uint64(level+1)
				dist[v] = level + 1
				e.queue[tail] = v
				tail++
			}
		}
	}
}

// begin starts a search: it moves to a new epoch, so that no node reads as
// discovered, pre-marks the banned nodes, and returns the epoch's base
// mark, cur = epoch<<32.
func (e *SPEngine) begin() uint64 {
	e.epoch++
	if e.epoch == 0 {
		clear(e.mark)
		e.epoch = 1
	}
	cur := uint64(e.epoch) << 32
	for _, u := range e.bannedNodes {
		e.mark[u] = cur | banLevel
	}
	return cur
}

// search runs one breadth-first search from src under the current bans,
// leaving levels and predecessors in mark and pred, and reports whether
// dst was reached. The queue holds the discovered nodes in discovery
// order, so each level's frontier is one segment of it. Without random,
// each node keeps its first discoverer, frontiers are scanned in
// discovery order, and the search returns as soon as dst is discovered.
// With random, which is TieRandom's RNG contract, each frontier is
// shuffled before it is scanned, every arc into a node already discovered
// at the next level draws IntN(ties) in scan order to reservoir-sample the
// predecessor, and dst's level is finished before the search returns.
//
// The loop reads the engine's slices through e rather than copying them
// into locals: with locals, the compiler spilled and reloaded them around
// the draw calls on every arc, and searches ran up to 1.3 times slower.
func (e *SPEngine) search(src, dst NodeID, random bool) bool {
	cur := e.begin()
	if e.mark[src] == cur|banLevel || e.mark[dst] == cur|banLevel {
		return false
	}
	e.mark[src] = cur
	if src == dst {
		return true
	}
	// stop is the node whose discovery ends the scan: dst, unless the
	// search is random and must finish dst's level.
	stop := dst
	if random {
		stop = -1
	}
	e.queue[0] = src
	head, tail := 0, 1
	for level := uint64(1); head < tail; level++ {
		end := tail
		if random {
			xrand.ShuffleSlice(e.rng, e.queue[head:end])
		}
		here := cur | level // the mark of a node first reached from this frontier
		tie := uint64(0)    // the mark whose arcs draw; 0 matches no node
		if random {
			tie = here
		}
		for ; head < end; head++ {
			u := e.queue[head]
			lo, hi := e.g.start[u], e.g.start[u+1]
			bans := e.linkBan[lo:hi]
			for i, v := range e.g.nbr[lo:hi] {
				if m := e.mark[v]; m < cur {
					if bans[i] == e.banCur {
						continue
					}
					e.mark[v] = here
					e.pred[v] = uint64(u)<<32 | 1
					if v == stop {
						return true
					}
					e.queue[tail] = v
					tail++
				} else if m == tie && bans[i] != e.banCur {
					p := e.pred[v] + 1
					if e.rng.IntN(int(uint32(p))) == 0 {
						p = uint64(u)<<32 | uint64(uint32(p))
					}
					e.pred[v] = p
				}
			}
		}
		if e.mark[dst] >= cur {
			// dst was discovered in the level just expanded; all its
			// potential predecessors have voted, so the parent choice is
			// final.
			return true
		}
	}
	return false
}
