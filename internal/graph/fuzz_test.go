package graph

import (
	"math"
	"testing"

	"repro/internal/xrand"
)

// refBans is the oracle's ban state: plain sets, cleared by replacing
// them, with none of the engine's epoch marks or link ids.
type refBans struct {
	nodes map[NodeID]bool
	links map[[2]NodeID]bool // directed (u, v)
}

func newRefBans() *refBans {
	return &refBans{nodes: map[NodeID]bool{}, links: map[[2]NodeID]bool{}}
}

// bfs is a textbook queue BFS from src under the bans: neighbours are
// scanned in ascending order and a node keeps its first discoverer. It
// returns the parent table (-2 = unreached) and the hop distances (-1 =
// unreached).
func (r *refBans) bfs(g *Graph, src NodeID) (parent []NodeID, dist []int32) {
	n := g.NumNodes()
	parent = make([]NodeID, n)
	dist = make([]int32, n)
	for i := range parent {
		parent[i], dist[i] = -2, -1
	}
	if r.nodes[src] {
		return parent, dist
	}
	parent[src], dist[src] = -1, 0
	queue := []NodeID{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.Neighbors(u) {
			if r.nodes[v] || r.links[[2]NodeID{u, v}] || parent[v] != -2 {
				continue
			}
			parent[v], dist[v] = u, dist[u]+1
			queue = append(queue, v)
		}
	}
	return parent, dist
}

// path is the oracle's answer to ShortestPath(src, dst).
func (r *refBans) path(g *Graph, src, dst NodeID) (Path, bool) {
	if r.nodes[dst] {
		return nil, false
	}
	parent, _ := r.bfs(g, src)
	if parent[dst] == -2 {
		return nil, false
	}
	var p Path
	for u := dst; u != -1; u = parent[u] {
		p = append(Path{u}, p...)
	}
	return p, true
}

// respects reports whether p avoids every banned node and link.
func (r *refBans) respects(p Path) bool {
	for i, u := range p {
		if r.nodes[u] || (i > 0 && r.links[[2]NodeID{p[i-1], u}]) {
			return false
		}
	}
	return true
}

// FuzzEngineBans drives a deterministic and a randomized SPEngine through a
// script of node bans, directed and undirected edge bans (non-edges and
// repeats included), ClearBans calls, counter jumps to just below their
// wrap, and queries on a small graph, and checks every answer against the
// oracles. The deterministic engine must return exactly the path of the
// queue BFS and of the pre-packing search loop (refBans.search), which
// pins that its goal-directed pruning and early exit at dst keep every
// path node's first discoverer, whatever ball earlier queries left. The
// randomized one must return exactly the pre-packing loop's path, run on
// an RNG seeded alike, and leave its RNG where that loop leaves the
// oracle's: the next Uint64 of both must be equal after every query and
// distance scan. Both engines must return exactly the queue BFS's
// distances.
//
// Input: byte 0 sizes the graph (2..17 nodes), byte 1 counts its edge
// draws, then two bytes per edge draw, then a script of 3-byte ops.
func FuzzEngineBans(f *testing.F) {
	// A 6-cycle with the chord 0-3: ban 0→1 and query both ways, repeat
	// the ban, ban a non-edge and a self pair, clear, ban node 3, and query
	// a banned and an unbanned node to itself.
	f.Add([]byte{
		4, 7, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 0, 0, 3,
		1, 0, 1, 4, 0, 1, 4, 1, 0, 1, 0, 1, 2, 1, 4, 2, 2, 2, 4, 0, 2, 5, 0, 0,
		3, 0, 0, 0, 3, 0, 4, 0, 4, 5, 2, 0, 4, 3, 3, 4, 1, 1,
	})
	// Two routes from 0 to 2, 0-1-2 and 0-3-4-2: ban node 1, query 0->2,
	// clear, and query 0->2 again. The second query reuses the first
	// one's ball, so a ball grown under the first query's bans would hide
	// node 1 from it.
	f.Add([]byte{3, 5, 0, 1, 1, 2, 0, 3, 3, 4, 4, 2, 0, 1, 0, 4, 0, 2, 3, 0, 0, 4, 0, 2})
	for seed := uint64(1); seed <= 8; seed++ {
		rng := xrand.New(seed)
		buf := make([]byte, 64+rng.IntN(192))
		for i := range buf {
			buf[i] = byte(rng.Uint64())
		}
		f.Add(buf)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		n := 2 + next()%16
		b := NewBuilder(n)
		for draws := next() % 64; draws > 0; draws-- {
			u, v := NodeID(next()%n), NodeID(next()%n)
			if u != v {
				b.AddEdge(u, v)
			}
		}
		g := b.Graph()
		det := NewSPEngine(g, TieDeterministic, nil)
		rndRNG, refRNG := xrand.New(uint64(n)), xrand.New(uint64(n))
		rnd := NewSPEngine(g, TieRandom, rndRNG)
		ref := newRefBans()
		dist := make([]int32, n)
		checkRNG := func(step int) {
			if got, want := rndRNG.Uint64(), refRNG.Uint64(); got != want {
				t.Fatalf("step %d: random engine's next word %x, oracle's %x", step, got, want)
			}
		}
		for step := 0; len(data) > 0; step++ {
			op, u, v := next()%7, NodeID(next()%n), NodeID(next()%n)
			switch op {
			case 0:
				det.BanNode(u)
				rnd.BanNode(u)
				ref.nodes[u] = true
			case 1:
				det.BanDirectedEdge(u, v)
				rnd.BanDirectedEdge(u, v)
				ref.links[[2]NodeID{u, v}] = true
			case 2:
				det.BanUndirectedEdge(u, v)
				rnd.BanUndirectedEdge(u, v)
				ref.links[[2]NodeID{u, v}] = true
				ref.links[[2]NodeID{v, u}] = true
			case 3:
				det.ClearBans()
				rnd.ClearBans()
				ref = newRefBans()
			case 4:
				want, wantOK := ref.path(g, u, v)
				got, ok := det.ShortestPath(u, v)
				if ok != wantOK || !got.Equal(want) {
					t.Fatalf("step %d: deterministic %d->%d = %v, %v; oracle %v, %v", step, u, v, got, ok, want, wantOK)
				}
				if p, pOK := ref.search(g, TieDeterministic, nil, u, v); pOK != ok || !p.Equal(got) {
					t.Fatalf("step %d: deterministic %d->%d = %v, %v; pre-packing search %v, %v", step, u, v, got, ok, p, pOK)
				}
				got, ok = rnd.ShortestPath(u, v)
				if ok != wantOK {
					t.Fatalf("step %d: random %d->%d found=%v, oracle %v", step, u, v, ok, wantOK)
				}
				if ok && (got.Hops() != want.Hops() || got.Src() != u || got.Dst() != v ||
					!got.ValidIn(g) || !got.Loopless() || !ref.respects(got)) {
					t.Fatalf("step %d: random %d->%d = %v, oracle %v", step, u, v, got, want)
				}
				want, wantOK = ref.search(g, TieRandom, refRNG, u, v)
				if ok != wantOK || !got.Equal(want) {
					t.Fatalf("step %d: random %d->%d = %v, %v; pre-packing search %v, %v", step, u, v, got, ok, want, wantOK)
				}
				checkRNG(step)
			case 5:
				_, want := ref.bfs(g, u)
				for _, e := range []*SPEngine{det, rnd} {
					e.AllDistancesFrom(u, dist)
					for w := range dist {
						if dist[w] != want[w] {
							t.Fatalf("step %d: distances from %d = %v, oracle %v", step, u, dist, want)
						}
					}
				}
				checkRNG(step)
			case 6:
				// Jump the search counter forward to within four searches
				// of its wrap (counters never run backwards); an odd v
				// also wraps the ban counter, which clears every ban.
				for _, e := range []*SPEngine{det, rnd} {
					e.epoch = max(e.epoch, math.MaxUint32-uint32(u%4))
					if v%2 == 1 {
						e.banCur = math.MaxUint32
						e.ClearBans()
					}
				}
				if v%2 == 1 {
					ref = newRefBans()
				}
			}
		}
	})
}
