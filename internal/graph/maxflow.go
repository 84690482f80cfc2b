package graph

// MaxEdgeDisjointPaths returns the maximum number of pairwise edge-disjoint
// paths between src and dst: by Menger's theorem, the value of a maximum
// flow with unit capacity on every undirected edge. It is the exact upper
// bound the greedy Remove-Find method (ksp.EDKSP) is tested against, and
// exp.DisjointExistence counts with it the pairs that admit k such paths.
//
// The implementation is Edmonds-Karp specialized to unit capacities on an
// undirected graph: each undirected edge {u, v} becomes a pair of directed
// arcs with one shared unit of capacity in each direction (flow u→v cancels
// flow v→u). Complexity O(E * maxflow), ample for the graph sizes here.
//
// src == dst returns 0.
func MaxEdgeDisjointPaths(g *Graph, src, dst NodeID) int {
	if src == dst {
		return 0
	}
	n := g.NumNodes()
	// Residual capacity per directed link id: initially 1 each way.
	resid := make([]int8, g.NumDirectedLinks())
	for i := range resid {
		resid[i] = 1
	}
	parentLink := make([]int32, n)
	visited := make([]bool, n)
	queue := make([]NodeID, 0, n)

	flow := 0
	for {
		// BFS for an augmenting path in the residual graph.
		for i := range visited {
			visited[i] = false
		}
		queue = queue[:0]
		queue = append(queue, src)
		visited[src] = true
		found := false
	bfs:
		for qi := 0; qi < len(queue); qi++ {
			u := queue[qi]
			// Walk u's outgoing links straight off the arena: the link id is
			// the loop index, so no per-neighbor LinkID search is needed.
			lo, hi := g.LinkRange(u)
			for id := lo; id < hi; id++ {
				v := g.nbr[id]
				if visited[v] || resid[id] <= 0 {
					continue
				}
				visited[v] = true
				parentLink[v] = id
				if v == dst {
					found = true
					break bfs
				}
				queue = append(queue, v)
			}
		}
		if !found {
			return flow
		}
		// Augment one unit along the path: push forward, restore reverse.
		for v := dst; v != src; {
			id := parentLink[v]
			resid[id]--
			resid[g.rev[id]]++
			v = g.owner[id]
		}
		flow++
	}
}
