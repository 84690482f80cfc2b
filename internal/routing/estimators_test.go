package routing

import (
	"testing"

	"repro/internal/graph"
)

func TestEstimatorByName(t *testing.T) {
	for _, name := range []string{"zero", "hops", "link-load"} {
		est, err := EstimatorByName(name)
		if err != nil || est == nil {
			t.Fatalf("EstimatorByName(%q) = %v, %v", name, est, err)
		}
	}
	if _, err := EstimatorByName("queues"); err == nil {
		t.Fatal("unknown name did not error")
	}
	// Each call owns fresh state.
	a, _ := EstimatorByName("link-load")
	b, _ := EstimatorByName("link-load")
	if a.(*LinkLoadEstimator) == b.(*LinkLoadEstimator) {
		t.Fatal("link-load instances are shared")
	}
}

func TestZeroAndHopEstimators(t *testing.T) {
	p := graph.Path{0, 1, 2, 3}
	if c := (ZeroEstimator{}).PathCost(p); c != 0 {
		t.Fatalf("zero cost = %d", c)
	}
	if c := (HopEstimator{}).PathCost(p); c != 3 {
		t.Fatalf("hop cost = %d, want 3", c)
	}
}

// observe feeds every link of p to the estimator, as a path's owner does.
func observe(e *LinkLoadEstimator, p graph.Path) {
	for i := 0; i+1 < len(p); i++ {
		e.ObserveLink(p[i], p[i+1])
	}
}

func TestLinkLoadEstimator(t *testing.T) {
	e := NewLinkLoadEstimator()
	p := graph.Path{0, 1, 2}
	q := graph.Path{0, 3, 2}
	if e.PathCost(p) != 0 || e.PathCost(q) != 0 {
		t.Fatal("fresh estimator must cost 0")
	}
	observe(e, p)
	observe(e, p)
	// Cost = first-link count × hops: link 0->1 carried 2 choices.
	if c := e.PathCost(p); c != 2*2 {
		t.Fatalf("cost after 2 observations = %d, want 4", c)
	}
	if c := e.PathCost(q); c != 0 {
		t.Fatalf("untouched path costs %d, want 0", c)
	}
	if c := e.PathCost(graph.Path{5}); c != 0 {
		t.Fatalf("zero-hop path costs %d, want 0", c)
	}
}

func TestLinkLoadDecay(t *testing.T) {
	e := NewLinkLoadEstimator()
	p := graph.Path{0, 1}
	for i := 0; i < linkLoadDecay; i++ {
		e.ObserveLink(0, 1)
	}
	// The last observation of the period triggers a halving.
	if c := e.PathCost(p); c != linkLoadDecay/2 {
		t.Fatalf("cost after decay = %d, want %d", c, linkLoadDecay/2)
	}
	// Counts that decay to <= 0 are dropped, bounding the map.
	e.ObserveLink(2, 3)
	for i := 0; i < 2*linkLoadDecay; i++ {
		e.ObserveLink(0, 1)
	}
	if c := e.PathCost(graph.Path{2, 3}); c != 0 {
		t.Fatalf("fully decayed link still costs %d", c)
	}
	if len(e.counts) != 1 {
		t.Fatalf("%d links counted, want only 0->1", len(e.counts))
	}
}
