package graph

import (
	"container/heap"
	"math"
	"testing"

	"repro/internal/xrand"
)

// Dijkstra is the reference the BFS engine is checked against: a textbook
// heap-based search, weighted and with the same tie-break policies.
// Selection runs on the BFS engine, since all Jellyfish links weigh 1.

// WeightFunc returns the nonnegative cost of traversing the directed link
// u→v.
type WeightFunc func(u, v NodeID) float64

// UnitWeights assigns cost 1 to every link.
func UnitWeights(NodeID, NodeID) float64 { return 1 }

// Dijkstra computes a least-cost src→dst path under w with the given
// tie-breaking policy. It returns the path, its cost, and whether dst is
// reachable. rng may be nil for TieDeterministic.
func Dijkstra(g *Graph, src, dst NodeID, w WeightFunc, tie TieBreak, rng *xrand.RNG) (Path, float64, bool) {
	if tie == TieRandom && rng == nil {
		panic("graph: TieRandom requires an RNG")
	}
	n := g.NumNodes()
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	parent := make([]NodeID, n)
	for i := range parent {
		parent[i] = -1
	}
	done := make([]bool, n)
	var tieCnt []int32 // equal-distance discoverers per node (TieRandom only)
	if tie == TieRandom {
		tieCnt = make([]int32, n)
	}

	pq := &dijkstraHeap{}
	heap.Init(pq)
	dist[src] = 0
	heap.Push(pq, dijkstraItem{node: src, dist: 0, tie: tieKey(src, tie, rng)})

	for pq.Len() > 0 {
		it := heap.Pop(pq).(dijkstraItem)
		u := it.node
		if done[u] {
			continue
		}
		done[u] = true
		if u == dst {
			break
		}
		for _, v := range g.nbr[g.start[u]:g.start[u+1]] {
			if done[v] {
				continue
			}
			nd := dist[u] + w(u, v)
			switch {
			case nd < dist[v]:
				dist[v] = nd
				parent[v] = u
				if tie == TieRandom {
					tieCnt[v] = 1
				}
				heap.Push(pq, dijkstraItem{node: v, dist: nd, tie: tieKey(v, tie, rng)})
			case nd == dist[v] && tie == TieRandom:
				// Reservoir-sample a uniform predecessor among all
				// equal-distance discoverers (as SPEngine does): the i-th
				// discoverer replaces the incumbent with probability 1/i,
				// so each of k ties ends up chosen with probability 1/k. A
				// plain coin flip here would hand later discoverers up to
				// 1/2 regardless of the tie count. The heap entry need not
				// change since the distance is equal.
				tieCnt[v]++
				if rng.IntN(int(tieCnt[v])) == 0 {
					parent[v] = u
				}
			}
		}
	}
	if math.IsInf(dist[dst], 1) {
		return nil, 0, false
	}
	// Reconstruct.
	var rev Path
	for u := dst; u != -1; u = parent[u] {
		rev = append(rev, u)
	}
	p := make(Path, len(rev))
	for i := range rev {
		p[i] = rev[len(rev)-1-i]
	}
	return p, dist[dst], true
}

func tieKey(u NodeID, tie TieBreak, rng *xrand.RNG) uint64 {
	if tie == TieRandom {
		return rng.Uint64()
	}
	return uint64(uint32(u))
}

type dijkstraItem struct {
	node NodeID
	dist float64
	tie  uint64
}

type dijkstraHeap []dijkstraItem

func (h dijkstraHeap) Len() int { return len(h) }
func (h dijkstraHeap) Less(i, j int) bool {
	if h[i].dist != h[j].dist {
		return h[i].dist < h[j].dist
	}
	return h[i].tie < h[j].tie
}
func (h dijkstraHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *dijkstraHeap) Push(x interface{}) { *h = append(*h, x.(dijkstraItem)) }
func (h *dijkstraHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// TestDijkstraTieUniform checks that TieRandom samples a predecessor
// uniformly among all equal-cost alternatives. The weighted diamond below
// gives the sink three cost-3 paths whose relaxation order is forced:
//
//	0 --1-- 1 --2-- 4
//	0 --1-- 2 --2-- 4
//	0 --2-- 3 --1-- 4
//
// Nodes 1 and 2 settle at distance 1 and relax the sink first; node 3
// settles at distance 2 and always votes last. The pre-reservoir coin
// flip handed the last voter probability 1/2 (and 1/4 to each earlier
// one) regardless of the tie count; reservoir sampling with a per-node
// tie counter restores 1/3 each.
func TestDijkstraTieUniform(t *testing.T) {
	b := NewBuilder(5)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(0, 3)
	b.AddEdge(1, 4)
	b.AddEdge(2, 4)
	b.AddEdge(3, 4)
	g := b.Graph()
	weights := map[[2]NodeID]float64{
		{0, 1}: 1, {0, 2}: 1, {0, 3}: 2,
		{1, 4}: 2, {2, 4}: 2, {3, 4}: 1,
	}
	w := func(u, v NodeID) float64 {
		if u > v {
			u, v = v, u
		}
		return weights[[2]NodeID{u, v}]
	}

	const trials = 3000
	rng := xrand.New(1)
	counts := map[NodeID]int{}
	for i := 0; i < trials; i++ {
		p, cost, ok := Dijkstra(g, 0, 4, w, TieRandom, rng)
		if !ok || cost != 3 || len(p) != 3 {
			t.Fatalf("path %v cost %v ok %v", p, cost, ok)
		}
		counts[p[1]]++
	}
	for _, mid := range []NodeID{1, 2, 3} {
		frac := float64(counts[mid]) / trials
		// 1/3 each; the old coin flip put the late voter (node 3) at 1/2
		// and the early ones at 1/4, both far outside these bounds.
		if frac < 0.29 || frac > 0.38 {
			t.Errorf("predecessor %d chosen %.3f of trials, want ~0.333 (counts %v)",
				mid, frac, counts)
		}
	}
}
