package graph

// Differential suite pinning the CSR-packed graph against the
// representation it replaced. refGraph below is a faithful copy of the
// pre-CSR layout — per-node slice adjacency built through per-node hash
// maps, LinkID by binary search, LinkEndpoints by binary-searching the
// start array — kept here as the oracle. Every public accessor must agree
// with it on random graphs, and Fingerprint must reproduce golden values
// captured from the old implementation so path-cache keys and jfserve
// topology keys provably survive the refactor.

import (
	"sort"
	"testing"

	"repro/internal/xrand"
)

// refGraph is the pre-CSR slice representation, used as the test oracle.
type refGraph struct {
	n     int
	adj   [][]NodeID
	start []int32
	m     int
}

// refBuilder mirrors the old map-based Builder.
type refBuilder struct {
	n   int
	adj []map[NodeID]struct{}
}

func newRefBuilder(n int) *refBuilder {
	adj := make([]map[NodeID]struct{}, n)
	for i := range adj {
		adj[i] = make(map[NodeID]struct{})
	}
	return &refBuilder{n: n, adj: adj}
}

func (b *refBuilder) addEdge(u, v NodeID) bool {
	if _, ok := b.adj[u][v]; ok {
		return false
	}
	b.adj[u][v] = struct{}{}
	b.adj[v][u] = struct{}{}
	return true
}

func (b *refBuilder) removeEdge(u, v NodeID) bool {
	if _, ok := b.adj[u][v]; !ok {
		return false
	}
	delete(b.adj[u], v)
	delete(b.adj[v], u)
	return true
}

func (b *refBuilder) hasEdge(u, v NodeID) bool {
	_, ok := b.adj[u][v]
	return ok
}

func (b *refBuilder) graph() *refGraph {
	g := &refGraph{n: b.n, adj: make([][]NodeID, b.n), start: make([]int32, b.n+1)}
	total := 0
	for u := range b.adj {
		lst := make([]NodeID, 0, len(b.adj[u]))
		for v := range b.adj[u] {
			lst = append(lst, v)
		}
		sort.Slice(lst, func(i, j int) bool { return lst[i] < lst[j] })
		g.adj[u] = lst
		g.start[u] = int32(total)
		total += len(lst)
	}
	g.start[b.n] = int32(total)
	g.m = total / 2
	return g
}

func (g *refGraph) linkID(u, v NodeID) int32 {
	lst := g.adj[u]
	lo, hi := 0, len(lst)
	for lo < hi {
		mid := (lo + hi) / 2
		if lst[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(lst) && lst[lo] == v {
		return g.start[u] + int32(lo)
	}
	return -1
}

func (g *refGraph) linkEndpoints(link int32) (u, v NodeID) {
	u = NodeID(sort.Search(g.n, func(i int) bool { return g.start[i+1] > link }))
	v = g.adj[u][link-g.start[u]]
	return u, v
}

// randomEdges draws a random simple edge set on n nodes.
func randomEdges(rng *xrand.RNG, n int, p float64) [][2]NodeID {
	var edges [][2]NodeID
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				edges = append(edges, [2]NodeID{NodeID(i), NodeID(j)})
			}
		}
	}
	return edges
}

// buildBoth constructs the CSR graph and the reference oracle from the
// same edge list.
func buildBoth(n int, edges [][2]NodeID) (*Graph, *refGraph) {
	b := NewBuilder(n)
	rb := newRefBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
		rb.addEdge(e[0], e[1])
	}
	return b.Graph(), rb.graph()
}

// differentialCases returns a spread of shapes: random densities, isolated
// nodes, stars, a complete graph and an empty one.
func differentialCases(t *testing.T) map[string][2]interface{} {
	t.Helper()
	rng := xrand.New(99)
	cases := map[string][2]interface{}{}
	add := func(name string, n int, edges [][2]NodeID) {
		g, ref := buildBoth(n, edges)
		cases[name] = [2]interface{}{g, ref}
	}
	add("empty", 7, nil)
	add("single-edge", 2, [][2]NodeID{{0, 1}})
	add("sparse", 60, randomEdges(rng, 60, 0.05))
	add("medium", 45, randomEdges(rng, 45, 0.3))
	add("dense", 25, randomEdges(rng, 25, 0.8))
	var star [][2]NodeID
	for i := 1; i < 30; i++ {
		star = append(star, [2]NodeID{0, NodeID(i)})
	}
	add("star", 30, star)
	var comp [][2]NodeID
	for i := 0; i < 12; i++ {
		for j := i + 1; j < 12; j++ {
			comp = append(comp, [2]NodeID{NodeID(i), NodeID(j)})
		}
	}
	add("complete", 12, comp)
	// Isolated high-id nodes after the last edge.
	add("isolated-tail", 20, [][2]NodeID{{3, 4}, {4, 5}})
	return cases
}

func TestCSRMatchesSliceRepresentation(t *testing.T) {
	for name, pair := range differentialCases(t) {
		g, ref := pair[0].(*Graph), pair[1].(*refGraph)
		if g.NumNodes() != ref.n || g.NumEdges() != ref.m {
			t.Fatalf("%s: size mismatch: (%d,%d) vs (%d,%d)", name, g.NumNodes(), g.NumEdges(), ref.n, ref.m)
		}
		for u := NodeID(0); int(u) < ref.n; u++ {
			nb := g.Neighbors(u)
			if len(nb) != len(ref.adj[u]) {
				t.Fatalf("%s: Neighbors(%d) length %d, want %d", name, u, len(nb), len(ref.adj[u]))
			}
			for i, v := range nb {
				if v != ref.adj[u][i] {
					t.Fatalf("%s: Neighbors(%d)[%d] = %d, want %d", name, u, i, v, ref.adj[u][i])
				}
				if i > 0 && nb[i-1] >= v {
					t.Fatalf("%s: Neighbors(%d) not strictly sorted: %v", name, u, nb)
				}
			}
			if g.Degree(u) != len(ref.adj[u]) {
				t.Fatalf("%s: Degree(%d) = %d, want %d", name, u, g.Degree(u), len(ref.adj[u]))
			}
			if lo, hi := g.LinkRange(u); lo != ref.start[u] || hi != ref.start[u+1] {
				t.Fatalf("%s: LinkRange(%d) = [%d,%d), want [%d,%d)", name, u, lo, hi, ref.start[u], ref.start[u+1])
			}
		}
	}
}

func TestCSRLinkRoundTripEveryLink(t *testing.T) {
	for name, pair := range differentialCases(t) {
		g, ref := pair[0].(*Graph), pair[1].(*refGraph)
		for l := int32(0); int(l) < g.NumDirectedLinks(); l++ {
			u, v := g.LinkEndpoints(l)
			ru, rv := ref.linkEndpoints(l)
			if u != ru || v != rv {
				t.Fatalf("%s: LinkEndpoints(%d) = (%d,%d), ref (%d,%d)", name, l, u, v, ru, rv)
			}
			if got := g.LinkID(u, v); got != l {
				t.Fatalf("%s: LinkID(LinkEndpoints(%d)) = %d", name, l, got)
			}
			if g.LinkTarget(l) != v {
				t.Fatalf("%s: LinkTarget(%d) = %d, want %d", name, l, g.LinkTarget(l), v)
			}
			r := g.ReverseLink(l)
			if want := g.LinkID(v, u); r != want {
				t.Fatalf("%s: ReverseLink(%d) = %d, want %d", name, l, r, want)
			}
			if g.ReverseLink(r) != l {
				t.Fatalf("%s: ReverseLink not an involution at %d", name, l)
			}
		}
	}
}

func TestCSRHasEdgeRandomProbes(t *testing.T) {
	rng := xrand.New(123)
	for name, pair := range differentialCases(t) {
		g, ref := pair[0].(*Graph), pair[1].(*refGraph)
		if ref.n == 0 {
			continue
		}
		for probe := 0; probe < 2000; probe++ {
			u := NodeID(rng.IntN(ref.n))
			v := NodeID(rng.IntN(ref.n))
			want := u != v && ref.linkID(u, v) >= 0
			if g.HasEdge(u, v) != want {
				t.Fatalf("%s: HasEdge(%d,%d) = %v, want %v", name, u, v, g.HasEdge(u, v), want)
			}
			if wantID := ref.linkID(u, v); g.LinkID(u, v) != wantID {
				t.Fatalf("%s: LinkID(%d,%d) = %d, ref %d", name, u, v, g.LinkID(u, v), wantID)
			}
		}
	}
}

func TestCSREdgesIterator(t *testing.T) {
	for name, pair := range differentialCases(t) {
		g, ref := pair[0].(*Graph), pair[1].(*refGraph)
		var got [][2]NodeID
		for u, v := range g.Edges() {
			got = append(got, [2]NodeID{u, v})
		}
		var want [][2]NodeID
		for u := NodeID(0); int(u) < ref.n; u++ {
			for _, v := range ref.adj[u] {
				if u < v {
					want = append(want, [2]NodeID{u, v})
				}
			}
		}
		if len(got) != len(want) || len(got) != ref.m {
			t.Fatalf("%s: Edges() yielded %d, want %d", name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: Edges()[%d] = %v, want %v", name, i, got[i], want[i])
			}
		}
		// Early termination must not panic or over-yield.
		stopped := 0
		for range g.Edges() {
			stopped++
			break
		}
		if ref.m > 0 && stopped != 1 {
			t.Fatalf("%s: early break yielded %d edges", name, stopped)
		}
	}
}

// TestBuilderDifferentialOps drives the sorted-slice Builder and the old
// map-based builder through the same random add/remove sequence and
// demands identical answers throughout, then identical frozen graphs.
func TestBuilderDifferentialOps(t *testing.T) {
	rng := xrand.New(2024)
	const n = 40
	b := NewBuilder(n)
	rb := newRefBuilder(n)
	for op := 0; op < 5000; op++ {
		u := NodeID(rng.IntN(n))
		v := NodeID(rng.IntN(n))
		if u == v {
			continue
		}
		if rng.Float64() < 0.6 {
			if b.AddEdge(u, v) != rb.addEdge(u, v) {
				t.Fatalf("op %d: AddEdge(%d,%d) disagreement", op, u, v)
			}
		} else {
			if b.RemoveEdge(u, v) != rb.removeEdge(u, v) {
				t.Fatalf("op %d: RemoveEdge(%d,%d) disagreement", op, u, v)
			}
		}
		if b.HasEdge(u, v) != rb.hasEdge(u, v) {
			t.Fatalf("op %d: HasEdge(%d,%d) disagreement", op, u, v)
		}
		if b.Degree(u) != len(rb.adj[u]) {
			t.Fatalf("op %d: Degree(%d) = %d, want %d", op, u, b.Degree(u), len(rb.adj[u]))
		}
	}
	g, ref := b.Graph(), rb.graph()
	if g.NumEdges() != ref.m {
		t.Fatalf("frozen edge counts differ: %d vs %d", g.NumEdges(), ref.m)
	}
	for u := NodeID(0); int(u) < n; u++ {
		nb := g.Neighbors(u)
		for i, v := range nb {
			if ref.adj[u][i] != v {
				t.Fatalf("frozen Neighbors(%d) differ: %v vs %v", u, nb, ref.adj[u])
			}
		}
	}
}

// TestCloneDirectCopy pins the direct-CSR Clone: the clone must reproduce
// the edge set (fingerprint-equal after freezing) and stay fully
// independent of both the original graph and later clone edits.
func TestCloneDirectCopy(t *testing.T) {
	g := randomGraph(xrand.New(17), 50, 0.2)
	cb := g.Clone()
	c := cb.Graph()
	if c.Fingerprint() != g.Fingerprint() {
		t.Fatalf("clone fingerprint 0x%x, want 0x%x", c.Fingerprint(), g.Fingerprint())
	}
	// Mutating the clone builder must not disturb the original.
	fp := g.Fingerprint()
	mutated := false
	for u := NodeID(0); int(u) < g.NumNodes() && !mutated; u++ {
		for _, v := range g.Neighbors(u) {
			if u < v {
				cb.RemoveEdge(u, v)
				mutated = true
				break
			}
		}
	}
	if !mutated {
		t.Fatal("test graph had no edges")
	}
	if g.Fingerprint() != fp {
		t.Fatal("mutating a clone builder changed the original graph")
	}
	if cb.Graph().Fingerprint() == fp {
		t.Fatal("clone builder edit had no effect")
	}
}

// TestFingerprintGolden pins Fingerprint to values captured from the
// pre-CSR implementation (commit 95046a2). These are load-bearing: JFPC
// path-cache keys and jfserve topology keys embed the fingerprint, so any
// drift here silently invalidates every archived cache.
func TestFingerprintGolden(t *testing.T) {
	b := NewBuilder(5)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(3, 4)
	b.AddEdge(4, 0)
	b.AddEdge(1, 3)
	fixed := []struct {
		name string
		g    *Graph
		want uint64
	}{
		{"ring5+chord", b.Graph(), 0xfd469be2b1255f5c},
		{"empty(3)", NewBuilder(3).Graph(), 0xf9e0a189f05e174e},
		{"empty(0)", NewBuilder(0).Graph(), 0x88201fb960ff6465},
	}
	for _, c := range fixed {
		if got := c.g.Fingerprint(); got != c.want {
			t.Errorf("%s: Fingerprint = 0x%016x, want 0x%016x", c.name, got, c.want)
		}
	}
	// Insertion order must not matter.
	b2 := NewBuilder(5)
	b2.AddEdge(1, 3)
	b2.AddEdge(4, 0)
	b2.AddEdge(2, 3)
	b2.AddEdge(1, 2)
	b2.AddEdge(0, 1)
	b2.AddEdge(3, 4)
	if b2.Graph().Fingerprint() != 0xfd469be2b1255f5c {
		t.Error("fingerprint depends on edge insertion order")
	}
}
