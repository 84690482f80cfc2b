package graph_test

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/jellyfish"
	"repro/internal/xrand"
)

// oracleLinkID is LinkID by binary search over u's sorted neighbours,
// the lookup the rank table replaced: -1 for a non-edge, including an
// out-of-range v.
func oracleLinkID(g *graph.Graph, u, v graph.NodeID) int32 {
	nb := g.Neighbors(u)
	i := sort.Search(len(nb), func(i int) bool { return nb[i] >= v })
	if i < len(nb) && nb[i] == v {
		lo, _ := g.LinkRange(u)
		return lo + int32(i)
	}
	return -1
}

// checkLinkIDs compares LinkID and HasEdge with the oracle for every
// source in srcs and every v in [-1, n], edges and non-edges alike.
func checkLinkIDs(t *testing.T, g *graph.Graph, srcs []graph.NodeID) {
	t.Helper()
	n := graph.NodeID(g.NumNodes())
	edges := 0
	for _, u := range srcs {
		for v := graph.NodeID(-1); v <= n; v++ {
			want := oracleLinkID(g, u, v)
			if got := g.LinkID(u, v); got != want {
				t.Fatalf("LinkID(%d, %d) = %d, want %d", u, v, got, want)
			}
			if got := g.HasEdge(u, v); got != (want >= 0) {
				t.Fatalf("HasEdge(%d, %d) = %v, want %v", u, v, got, want >= 0)
			}
			if want >= 0 {
				edges++
				if g.ReverseLink(want) != oracleLinkID(g, v, u) {
					t.Fatalf("ReverseLink(%d) = %d, want LinkID(%d, %d) = %d",
						want, g.ReverseLink(want), v, u, oracleLinkID(g, v, u))
				}
			}
		}
	}
	degSum := 0
	for _, u := range srcs {
		degSum += g.Degree(u)
	}
	if edges != degSum {
		t.Fatalf("found %d links out of the sources, their degrees sum to %d", edges, degSum)
	}
}

func allNodes(n int) []graph.NodeID {
	out := make([]graph.NodeID, n)
	for i := range out {
		out[i] = graph.NodeID(i)
	}
	return out
}

// sampleNodes draws count distinct nodes of [0, n).
func sampleNodes(n, count int) []graph.NodeID {
	var out []graph.NodeID
	for _, u := range xrand.New(2).SampleK(n, count) {
		out = append(out, graph.NodeID(u))
	}
	return out
}

// star returns the graph with hub 0 joined to leaves 1..leaves, added in
// ascending id order so each insertion appends.
func star(leaves int) *graph.Builder {
	b := graph.NewBuilder(leaves + 1)
	for v := 1; v <= leaves; v++ {
		b.AddEdge(0, graph.NodeID(v))
	}
	return b
}

// TestLinkIDMatchesBinarySearch checks LinkID and HasEdge against a
// binary search of the sorted neighbour lists for every ordered (u, v),
// on the paper's two Jellyfish instances, a star whose hub rank overflows
// a byte, one edge and graphs with no edges.
func TestLinkIDMatchesBinarySearch(t *testing.T) {
	small := jellyfish.MustNew(jellyfish.Small, xrand.New(1)).G
	medium := jellyfish.MustNew(jellyfish.Medium, xrand.New(1)).G
	single := graph.NewBuilder(2)
	single.AddEdge(0, 1)
	cases := []struct {
		name string
		g    *graph.Graph
		srcs []graph.NodeID
	}{
		{"RRG(36,24,16)", small, allNodes(36)},
		{"RRG(720,24,19)-sample", medium, sampleNodes(720, 60)},
		{"star-300", star(300).Graph(), allNodes(301)},
		{"single-edge", single.Graph(), allNodes(2)},
		{"empty", graph.NewBuilder(0).Graph(), nil},
		{"no-edges", graph.NewBuilder(5).Graph(), allNodes(5)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			checkLinkIDs(t, c.g, c.srcs)
		})
	}
}

// TestGraphRejectsDegree65535 pins the documented limit of the 16-bit
// ranks: a hub of degree 65,534 freezes and answers LinkID, one of
// 65,535 panics.
func TestGraphRejectsDegree65535(t *testing.T) {
	b := star(65534)
	g := b.Graph()
	for _, v := range []graph.NodeID{1, 255, 256, 65533, 65534} {
		if got, want := g.LinkID(0, v), int32(v-1); got != want {
			t.Fatalf("LinkID(0, %d) = %d, want %d", v, got, want)
		}
		if got := g.LinkID(v, 0); got != oracleLinkID(g, v, 0) {
			t.Fatalf("LinkID(%d, 0) = %d, want %d", v, got, oracleLinkID(g, v, 0))
		}
	}
	b = star(65535)
	defer func() {
		if recover() == nil {
			t.Fatal("Builder.Graph accepted a node of degree 65,535")
		}
	}()
	b.Graph()
}

// BenchmarkLinkID times LinkID over every directed link of the paper's
// small and medium Jellyfish instances:
//
//	go test ./internal/graph -run '^$' -bench LinkID
func BenchmarkLinkID(b *testing.B) {
	for _, p := range []jellyfish.Params{jellyfish.Small, jellyfish.Medium} {
		g := jellyfish.MustNew(p, xrand.New(1)).G
		ends := make([][2]graph.NodeID, g.NumDirectedLinks())
		for l := range ends {
			u, v := g.LinkEndpoints(int32(l))
			ends[l] = [2]graph.NodeID{u, v}
		}
		b.Run(fmt.Sprintf("RRG(%d,%d,%d)", p.N, p.X, p.Y), func(b *testing.B) {
			var sum int32
			for i := 0; i < b.N; i++ {
				e := ends[i%len(ends)]
				sum += g.LinkID(e[0], e[1])
			}
			linkSink = sum
		})
	}
}

var linkSink int32
