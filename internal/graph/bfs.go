package graph

import (
	"slices"

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
// Deterministic searches are goal-directed. The engine keeps a ball
// around the last destination: the exact hop distance h(v) to it in the
// unbanned graph of every node within ballRadius hops, grown when a
// search needs it to that search's bound less one, and kept until a
// search asks for another destination, so Yen's spur searches and
// Remove-Find's rounds for one pair share it. Bans only lengthen paths, so h is a lower bound on
// every banned distance, and a node outside the ball is at least
// ballRadius+1 hops away. A search with bound B skips each arc into a
// node v first reached at level L with L + h(v) > B, and restarts with B
// raised to the least skipped value until it reaches dst. The returned
// path is the plain search's, the one of a search that scans frontiers
// in discovery order, lets each node keep its first discoverer and stops
// when dst is discovered. If that path has D hops, its node at level i is
// at most D-i hops from dst, so every node of it is kept under any bound
// B >= D. A bound below D cannot reach dst, and the first node the
// pruning drops off the path is skipped at a value of at most D, so the
// bound stops at or below D. And the pruning only removes nodes from
// each frontier, never puts one ahead of a node it followed, so each
// path node keeps the first discoverer it had. Only deterministic
// searches are pruned: a randomized search shuffles and draws over whole
// frontiers, and its RNG contract fixes that scan.
//
// The randomized search and AllDistancesFrom are direction-optimizing
// (Beamer, Asanović and Patterson, SC'12): a level whose frontier has
// more arcs than the nodes still undiscovered runs bottom-up, those nodes
// scanning their own arcs for frontier neighbours. The choice is made per
// level by that arc count alone, no setting changes it, and it never
// changes a result. A randomized level keeps exactly the arcs a top-down
// scan keeps, sorted into its order, so the draws and paths are the
// same; only AllDistancesFrom, which returns distances alone, stops a
// node at its first frontier neighbour. The deterministic search stays
// top-down: the ball prunes its frontiers, and it returns at dst's
// discovery rather than finishing a level.
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

	queue []NodeID // the current search's nodes in discovery order, plus a slot AllDistancesFrom writes past them
	arcs  []uint64 // per directed link: search's kept arcs, u<<32 | v; made by the first randomized search
	pos   []uint32 // per node: its position in a bottom-up level's frontier; made with arcs

	// The ball around ballDst, made on the first deterministic search;
	// ballDst is -1 before it. ball[v]-2 is v's unbanned hop distance to
	// ballDst inside the ball and 2^32-2 outside it: beyond every bound,
	// and apart from noSkip.
	ball       []uint32 // per node: 2 + hop distance to ballDst; 0 outside the ball
	ballNodes  []NodeID // the ball's nodes in breadth-first order from ballDst
	ballLayer  int      // ballNodes[ballLayer:] is the ball's outermost layer
	ballRadius uint32   // every node within ballRadius hops of ballDst is in the ball
	ballDst    NodeID
}

// banLevel is the level a banned node is pre-marked at; searches never get
// that deep, since a level is below the node count.
const banLevel = 1<<32 - 1

// ballWhole is the ball's radius once it holds ballDst's whole component.
// No node outside the ball then reaches ballDst, and the lower bound
// ballWhole+1 that the ball gives such a node puts it past every bound a
// search can use, since levels and distances are below the node count.
const ballWhole = 1 << 31

// noSkip is what a search level that skipped no node reports as the least
// distance it skipped, and what a bound starts from.
const noSkip = 1<<32 - 1

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
		queue:   make([]NodeID, n+1),
		linkBan: make([]uint32, len(g.nbr)),
		banCur:  1,
		ballDst: -1,
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
// the same path: the one a plain breadth-first search returns when it
// explores nodes in discovery order, lets each node keep its first
// discoverer and stops at dst's discovery. With TieRandom ties are broken
// randomly, and the search finishes dst's level: every equal-distance
// predecessor of dst gets its vote, and the random numbers a search draws
// do not depend on when dst is reached.
//
// A banned src or dst makes the search fail.
func (e *SPEngine) ShortestPath(src, dst NodeID) (Path, bool) {
	return e.AppendShortestPath(nil, src, dst)
}

// AppendShortestPath is ShortestPath appending the path's nodes to buf:
// it returns buf extended by the path and true, or buf unchanged and
// false when there is no path. It allocates only when buf lacks room.
func (e *SPEngine) AppendShortestPath(buf []NodeID, src, dst NodeID) ([]NodeID, bool) {
	cur := e.begin()
	if e.mark[src] == cur|banLevel || e.mark[dst] == cur|banLevel {
		return buf, false
	}
	e.mark[src] = cur
	if src != dst {
		found := false
		if e.tie == TieRandom {
			found = e.search(cur, src, dst)
		} else {
			found = e.seek(cur, src, dst)
		}
		if !found {
			return buf, false
		}
	}
	n := int(uint32(e.mark[dst])) + 1
	buf = slices.Grow(buf, n)
	p := buf[len(buf) : len(buf)+n]
	u := dst
	for i := n - 1; i >= 0; i-- {
		p[i] = u
		u = NodeID(e.pred[u] >> 32)
	}
	if p[0] != src {
		panic("graph: path extraction lost the source")
	}
	return buf[:len(buf)+n], true
}

// AllDistancesFrom fills dist with hop distances from src to every node,
// using -1 for unreachable nodes. Bans are respected. dist must have length
// NumNodes. It draws no random numbers, whatever the engine's tie mode.
//
// It runs its own scan over the search state rather than search's loop:
// whole-graph scans are ComputeMetrics' entire cost. Like search, it runs
// a level bottom-up when the undiscovered nodes have fewer arcs than the
// frontier, but each undiscovered node stops at its first frontier
// neighbour over an unbanned link, since only distances are returned and
// they do not depend on which neighbour discovers a node, or in what
// order. The scan ends as soon as no undiscovered node has an arc, since
// none can be reached then; on the paper's RRGs that skips the level
// that rescanned the whole last frontier to find nothing. A top-down
// level decides per arc, by conditional moves, whether its target is
// new: it writes every target to the queue and its mark back, and
// advances the queue's tail for new ones only. Which targets are new is
// close to random, and as a branch it made ComputeMetrics on
// RRG(720,24,19) about a third slower.
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
	rest := len(e.g.nbr) // the arcs of the nodes not yet discovered, bans aside
	for level := int32(0); head < tail; level++ {
		end := tail
		out := e.arcsOf(e.queue[head:end])
		if rest -= out; rest == 0 {
			break
		}
		next := cur | uint64(level+1)
		if rest < out {
			front := cur | uint64(level)
			for v := range NodeID(e.g.n) {
				if e.mark[v] >= cur {
					continue
				}
				lo, hi := e.g.start[v], e.g.start[v+1]
				rev := e.g.rev[lo:hi]
				for i, u := range e.g.nbr[lo:hi] {
					if e.mark[u] == front && e.linkBan[rev[i]] != e.banCur {
						e.mark[v] = next
						e.queue[tail] = v
						tail++
						break
					}
				}
			}
		} else {
			for _, u := range e.queue[head:end] {
				lo, hi := e.g.start[u], e.g.start[u+1]
				bans := e.linkBan[lo:hi]
				for i, v := range e.g.nbr[lo:hi] {
					m, keep := e.mark[v], 1
					if m >= cur {
						keep = 0
					}
					if bans[i] == e.banCur {
						keep = 0
					}
					if keep == 1 {
						m = next
					}
					e.mark[v] = m
					e.queue[tail] = v
					tail += keep
				}
			}
		}
		for _, v := range e.queue[end:tail] {
			dist[v] = level + 1
		}
		head = end
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

// search is TieRandom's search, from src, already marked at cur, to dst !=
// src. It leaves levels and predecessors in mark and pred and reports
// whether dst was reached. The queue holds the discovered nodes in
// discovery order, so each level's frontier is one segment of it. Each
// frontier is shuffled before it is scanned, every arc into a node
// already discovered at the next level draws IntN(ties) in scan order to
// reservoir-sample the predecessor, and dst's level is finished before
// the search returns: that is TieRandom's RNG contract.
//
// Each level makes two passes over its shuffled frontier. The first keeps,
// in arcs and in the order of a scan of the frontier's arcs, each arc
// whose link is not banned and whose target was undiscovered when the
// level began. The second walks the kept arcs in order: the first arc
// into a node discovers it, and each later one is a tie that draws. A
// one-loop scan meets the same events in the same order. It skips
// exactly the arcs the first pass drops: those into nodes discovered at
// earlier levels or banned, and those over banned links. It discovers a
// node at the first kept arc into it and draws at each later one, since
// the node's mark then reads as this level. So every draw and every path
// is the one-loop scan's. Whether an arc is old, new or a tie is close to
// random, and the one loop's three-way branch on it made rKSP and rEDKSP
// selection about twice as slow; the first pass decides only keep or
// drop, by conditional moves. A frontier's nodes are distinct, so a level
// keeps each directed link at most once and arcs needs one entry per
// link.
//
// The first pass runs top-down (keepTopDown), scanning the frontier's
// arcs, or bottom-up (keepBottomUp), scanning the undiscovered nodes'
// arcs, whichever side has fewer arcs: the undiscovered side is counted as
// every arc of a node not yet discovered, banned nodes included. A
// search's last level often has a frontier of hundreds of nodes with only
// a few undiscovered nodes left, and there bottom-up reads every node's
// mark and a few dozen arcs where top-down reads thousands of arcs. Both
// keep the same arcs in the same order (see keepBottomUp), so the choice
// never changes a draw or a path. Unlike AllDistancesFrom's, a bottom-up
// level here finds every kept arc into a node, not only the first, since
// each one votes.
//
// The passes read the engine's slices through e. Copying them into
// locals measured alike, within 3% either way in BenchmarkSelectors'
// rKSP and rEDKSP cells.
func (e *SPEngine) search(cur uint64, src, dst NodeID) bool {
	if e.arcs == nil {
		e.arcs = make([]uint64, len(e.g.nbr))
		e.pos = make([]uint32, e.g.NumNodes())
	}
	e.queue[0] = src
	head, tail := 0, 1
	rest := len(e.g.nbr) // the arcs of the nodes not yet discovered, bans aside
	for level := uint64(1); head < tail; level++ {
		frontier := e.queue[head:tail]
		xrand.ShuffleSlice(e.rng, frontier)
		out := e.arcsOf(frontier)
		rest -= out
		var kept []uint64
		if rest < out {
			kept = e.keepBottomUp(cur, cur|(level-1), frontier)
		} else {
			kept = e.keepTopDown(cur, frontier)
		}
		head = tail
		here := cur | level // the mark of a node first reached from this frontier
		for _, a := range kept {
			u, v := a>>32, NodeID(uint32(a))
			if e.mark[v] < cur {
				e.mark[v] = here
				e.pred[v] = u<<32 | 1
				e.queue[tail] = v
				tail++
				continue
			}
			// The winner is made before the draw, so that taking it
			// compiles to a conditional move. The draw is IntN(ties),
			// inlined: a call per draw made rKSP and rEDKSP selection
			// about 12% slower.
			p := e.pred[v] + 1
			won := u<<32 | uint64(uint32(p))
			if e.rng.Reduce(e.rng.Uint64(), uint64(uint32(p))) == 0 {
				p = won
			}
			e.pred[v] = p
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

// arcsOf returns the number of arcs leaving the nodes of s.
func (e *SPEngine) arcsOf(s []NodeID) int {
	arcs := 0
	for _, u := range s {
		arcs += int(e.g.start[u+1] - e.g.start[u])
	}
	return arcs
}

// keepTopDown is search's first pass over a frontier top-down: it scans
// the frontier's arcs in order and keeps, in arcs, each one whose link is
// not banned and whose target is undiscovered, as u<<32 | v.
func (e *SPEngine) keepTopDown(cur uint64, frontier []NodeID) []uint64 {
	kept := 0
	for _, u := range frontier {
		lo, hi := e.g.start[u], e.g.start[u+1]
		bans := e.linkBan[lo:hi]
		for i, v := range e.g.nbr[lo:hi] {
			// Every arc is written and kept ones advance kept; the two ifs
			// of one assignment each compile to conditional moves.
			e.arcs[kept] = uint64(u)<<32 | uint64(uint32(v))
			keep := 1
			if e.mark[v] >= cur {
				keep = 0
			}
			if bans[i] == e.banCur {
				keep = 0
			}
			kept += keep
		}
	}
	return e.arcs[:kept]
}

// keepBottomUp is search's first pass over a frontier bottom-up: it keeps
// the arcs keepTopDown keeps, in the same order, by scanning the arcs of
// the undiscovered nodes. Top-down, a level keeps u→v exactly when u is
// in the frontier, v was undiscovered when the level began and the link
// u→v is not banned. Bottom-up tests the same three things: each
// undiscovered node v keeps every neighbour u whose mark is front, the
// frontier's, over a link v→u whose reverse, rev[l], is not banned. The
// graph is simple, so each directed link is met once either way. The
// kept arcs are then sorted by u's position in the shuffled frontier
// and, within one u, by v, which is the order of the link ids of u's
// arena segment: that is keepTopDown's scan order.
func (e *SPEngine) keepBottomUp(cur, front uint64, frontier []NodeID) []uint64 {
	for i, u := range frontier {
		e.pos[u] = uint32(i)
	}
	kept := 0
	for v := range NodeID(e.g.n) {
		if e.mark[v] >= cur {
			continue
		}
		lo, hi := e.g.start[v], e.g.start[v+1]
		rev := e.g.rev[lo:hi]
		for i, u := range e.g.nbr[lo:hi] {
			// As in keepTopDown, the two ifs compile to conditional moves.
			e.arcs[kept] = uint64(e.pos[u])<<32 | uint64(uint32(v))
			keep := 1
			if e.mark[u] != front {
				keep = 0
			}
			if e.linkBan[rev[i]] == e.banCur {
				keep = 0
			}
			kept += keep
		}
	}
	arcs := e.arcs[:kept]
	slices.Sort(arcs)
	for i, a := range arcs {
		arcs[i] = uint64(frontier[a>>32])<<32 | a&(1<<32-1)
	}
	return arcs
}

// seek is TieDeterministic's search, from src, already marked at cur, to
// dst != src: a breadth-first search that scans frontiers in discovery
// order, lets each node keep its first discoverer and returns as soon as
// dst is discovered, pruned by the ball around dst (see SPEngine). Its
// first bound is one more than the least lower bound of src's reachable
// neighbours; while dst is not found it restarts with the least value it
// skipped, until nothing that could reach dst was skipped. A skipped node
// is marked as banned for the rest of the pass: any later arc into it
// comes from a level no lower, so it would be skipped at no lower value.
func (e *SPEngine) seek(cur uint64, src, dst NodeID) bool {
	if dst != e.ballDst {
		e.resetBall(dst)
	}
	// A path leaves src by an arc that is not banned, into a node that is
	// not banned, so it is one hop longer than the least lower bound of
	// such a neighbour. None is below src's own less one, so the scan
	// stops at the first neighbour that has that.
	tight := e.lowerBound(src) - 1
	bound := uint32(noSkip)
	lo, hi := e.g.start[src], e.g.start[src+1]
	bans := e.linkBan[lo:hi]
	for i, v := range e.g.nbr[lo:hi] {
		if e.mark[v] < cur && bans[i] != e.banCur {
			h := e.lowerBound(v)
			bound = min(bound, 1+h)
			if h == tight {
				break
			}
		}
	}
	for bound < ballWhole {
		// A node first reached at level >= 1 is kept only within bound-1
		// hops of dst, so the ball needs no larger radius. Every node
		// outside it is then at least bound hops from dst, and none
		// reaches dst once the ball is whole.
		e.grow(bound - 1)
		outside := bound
		if e.ballRadius == ballWhole {
			outside = ballWhole
		}
		next := uint32(noSkip) // the least level + lower bound skipped
		e.queue[0] = src
		head, tail := 0, 1
		for level := uint32(1); head < tail; level++ {
			here := cur | uint64(level)
			limit := bound - level  // the most hops to dst a node reached now may have
			least := uint32(noSkip) // the least hops to dst of a node skipped now
			for end := tail; head < end; head++ {
				u := e.queue[head]
				lo, hi := e.g.start[u], e.g.start[u+1]
				bans := e.linkBan[lo:hi]
				for i, v := range e.g.nbr[lo:hi] {
					if e.mark[v] >= cur || bans[i] == e.banCur {
						continue
					}
					// v is kept, or skipped: marked as banned, its
					// distance noted and its queue slot left to the next
					// node. Three ifs of one assignment each compile to
					// conditional moves. The choice is close to random,
					// and taken as a branch it made small-graph builds
					// about 10% slower.
					h := e.ball[v] - 2
					m, skipped, kept := here, h, 1
					if h > limit {
						m = cur | banLevel
					}
					if h <= limit {
						skipped = noSkip
					}
					if h > limit {
						kept = 0
					}
					least = min(least, skipped)
					e.mark[v] = m
					e.pred[v] = uint64(u) << 32
					if v == dst {
						return true
					}
					e.queue[tail] = v
					tail += kept
				}
			}
			if least != noSkip {
				next = min(next, level+min(least, outside))
			}
		}
		bound = next
		cur = e.begin()
		e.mark[src] = cur
	}
	return false
}

// resetBall empties the ball and centres it on dst, at radius 0.
func (e *SPEngine) resetBall(dst NodeID) {
	if e.ball == nil {
		e.ball = make([]uint32, e.g.NumNodes())
		e.ballNodes = make([]NodeID, 0, e.g.NumNodes())
	}
	for _, v := range e.ballNodes {
		e.ball[v] = 0
	}
	e.ball[dst] = 2
	e.ballNodes = append(e.ballNodes[:0], dst)
	e.ballLayer = 0
	e.ballRadius = 0
	e.ballDst = dst
}

// lowerBound returns a lower bound on v's hop distance to ballDst under
// any bans: its exact unbanned distance inside the ball, ballRadius+1
// outside it.
func (e *SPEngine) lowerBound(v NodeID) uint32 {
	return min(e.ball[v]-2, e.ballRadius+1)
}

// grow extends the ball breadth-first, ignoring bans, to radius r, or to
// ballDst's whole component if that is nearer.
func (e *SPEngine) grow(r uint32) {
	for e.ballRadius < r {
		layer := e.ballNodes[e.ballLayer:]
		e.ballLayer = len(e.ballNodes)
		h := e.ballRadius + 3 // 2 + the new layer's distance
		for _, u := range layer {
			for _, v := range e.g.nbr[e.g.start[u]:e.g.start[u+1]] {
				if e.ball[v] == 0 {
					e.ball[v] = h
					e.ballNodes = append(e.ballNodes, v)
				}
			}
		}
		if len(e.ballNodes) == e.ballLayer {
			e.ballRadius = ballWhole
			return
		}
		e.ballRadius++
	}
}
