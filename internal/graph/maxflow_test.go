package graph

import (
	"testing"

	"repro/internal/xrand"
)

func TestMaxEdgeDisjointLine(t *testing.T) {
	if got := MaxEdgeDisjointPaths(line(5), 0, 4); got != 1 {
		t.Fatalf("line flow = %d, want 1", got)
	}
}

func TestMaxEdgeDisjointCycle(t *testing.T) {
	if got := MaxEdgeDisjointPaths(cycle(6), 0, 3); got != 2 {
		t.Fatalf("cycle flow = %d, want 2", got)
	}
}

func TestMaxEdgeDisjointComplete(t *testing.T) {
	// K_n has n-1 edge-disjoint paths between any pair.
	for n := 3; n <= 7; n++ {
		if got := MaxEdgeDisjointPaths(complete(n), 0, NodeID(n-1)); got != n-1 {
			t.Fatalf("K%d flow = %d, want %d", n, got, n-1)
		}
	}
}

func TestMaxEdgeDisjointDisconnected(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	if got := MaxEdgeDisjointPaths(b.Graph(), 0, 3); got != 0 {
		t.Fatalf("flow across components = %d", got)
	}
	if got := MaxEdgeDisjointPaths(b.Graph(), 1, 1); got != 0 {
		t.Fatalf("self flow = %d", got)
	}
}

func TestMaxEdgeDisjointBoundedByMinDegree(t *testing.T) {
	g := randomGraph(xrand.New(21), 30, 0.25)
	for s := NodeID(0); s < 30; s += 5 {
		for d := NodeID(1); d < 30; d += 7 {
			if s == d {
				continue
			}
			flow := MaxEdgeDisjointPaths(g, s, d)
			min := g.Degree(s)
			if dd := g.Degree(d); dd < min {
				min = dd
			}
			if flow > min {
				t.Fatalf("%d->%d: flow %d exceeds min degree %d", s, d, flow, min)
			}
		}
	}
}

func TestMaxEdgeDisjointSymmetric(t *testing.T) {
	g := randomGraph(xrand.New(22), 25, 0.3)
	for s := NodeID(0); s < 25; s += 3 {
		for d := NodeID(1); d < 25; d += 4 {
			if s == d {
				continue
			}
			if a, b := MaxEdgeDisjointPaths(g, s, d), MaxEdgeDisjointPaths(g, d, s); a != b {
				t.Fatalf("%d<->%d: asymmetric flow %d vs %d", s, d, a, b)
			}
		}
	}
}

func TestBisectionCycle(t *testing.T) {
	// A cycle's bisection width is exactly 2.
	if got := BisectionEstimate(cycle(16), 20, 1, 2); got != 2 {
		t.Fatalf("cycle bisection = %d, want 2", got)
	}
}

func TestBisectionCompleteGraph(t *testing.T) {
	// K8 split 4/4 always cuts 16 edges regardless of the split.
	if got := BisectionEstimate(complete(8), 5, 1, 1); got != 16 {
		t.Fatalf("K8 bisection = %d, want 16", got)
	}
}

func TestBisectionUpperBoundAndDeterminism(t *testing.T) {
	g := randomGraph(xrand.New(24), 40, 0.15)
	a := BisectionEstimate(g, 10, 7, 3)
	b := BisectionEstimate(g, 10, 7, 1)
	if a != b {
		t.Fatalf("bisection not deterministic across worker counts: %d vs %d", a, b)
	}
	if a < 0 || a > g.NumEdges() {
		t.Fatalf("bisection %d out of range", a)
	}
	// More trials can only improve (lower or equal) the estimate.
	more := BisectionEstimate(g, 40, 7, 3)
	if more > a {
		t.Fatalf("more trials worsened the estimate: %d > %d", more, a)
	}
}

func TestBisectionDegenerate(t *testing.T) {
	if BisectionEstimate(line(1), 5, 1, 1) != 0 {
		t.Fatal("single node bisection should be 0")
	}
	if BisectionEstimate(cycle(4), 0, 1, 1) != 0 {
		t.Fatal("zero trials should be 0")
	}
}
