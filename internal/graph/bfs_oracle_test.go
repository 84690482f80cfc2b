package graph

import "repro/internal/xrand"

// search is SPEngine's search loop as it was before the engine packed its
// state, kept as the oracle for both tie modes: plain distance, parent and
// tie-count arrays made fresh per search, a frontier and a next slice, and
// bans read from r's sets on every arc. With TieRandom it shuffles each
// frontier, draws IntN(ties) once per arc into a node already discovered
// at the next level, in scan order, and finishes dst's level — the RNG
// contract the selectors' goldens depend on. FuzzEngineBans requires the
// engine to return exactly its path and to leave its RNG where this
// search leaves rng.
func (r *refBans) search(g *Graph, tie TieBreak, rng *xrand.RNG, src, dst NodeID) (Path, bool) {
	if r.nodes[src] || r.nodes[dst] {
		return nil, false
	}
	if src == dst {
		return Path{src}, true
	}
	n := g.NumNodes()
	seen := make([]bool, n)
	dist := make([]int32, n)
	parent := make([]NodeID, n)
	parentCnt := make([]int32, n)
	seen[src] = true
	parent[src] = -1
	extract := func() Path {
		p := make(Path, dist[dst]+1)
		for i, u := len(p)-1, dst; i >= 0; i, u = i-1, parent[u] {
			p[i] = u
		}
		return p
	}
	det := tie == TieDeterministic
	frontier := []NodeID{src}
	for level := int32(0); len(frontier) > 0; level++ {
		if !det {
			xrand.ShuffleSlice(rng, frontier)
		}
		var next []NodeID
		for _, u := range frontier {
			for _, v := range g.Neighbors(u) {
				if r.nodes[v] || r.links[[2]NodeID{u, v}] {
					continue
				}
				if !seen[v] {
					seen[v] = true
					dist[v] = level + 1
					parent[v] = u
					parentCnt[v] = 1
					if det && v == dst {
						return extract(), true
					}
					next = append(next, v)
				} else if !det && dist[v] == level+1 {
					// Reservoir-sample a uniform predecessor among all
					// equal-distance discoverers.
					parentCnt[v]++
					if rng.IntN(int(parentCnt[v])) == 0 {
						parent[v] = u
					}
				}
			}
		}
		if seen[dst] {
			return extract(), true
		}
		frontier = next
	}
	return nil, false
}
