package bench

import "repro/internal/graph"

// validRoute reports whether p is a simple path from src to dst over
// edges of g. Paths here are a handful of hops, so the quadratic
// repeated-node scan beats a set and allocates nothing.
func validRoute(g *graph.Graph, p []graph.NodeID, src, dst graph.NodeID) bool {
	if len(p) < 2 || p[0] != src || p[len(p)-1] != dst {
		return false
	}
	for i := 0; i+1 < len(p); i++ {
		if !g.HasEdge(p[i], p[i+1]) {
			return false
		}
		for j := i + 1; j < len(p); j++ {
			if p[i] == p[j] {
				return false
			}
		}
	}
	return true
}

// samePaths reports whether two path sets are identical, path by path.
func samePaths(a, b []graph.Path) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}
