package routing

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/xrand"
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
	// A link whose count decays to 0 reads 0 but keeps its slot; the
	// table stays at most half full, so it holds no more than twice the
	// distinct links observed.
	e.ObserveLink(2, 3)
	for i := 0; i < 2*linkLoadDecay; i++ {
		e.ObserveLink(0, 1)
	}
	if c := e.PathCost(graph.Path{2, 3}); c != 0 {
		t.Fatalf("fully decayed link still costs %d", c)
	}
	if links := 2; len(e.slots) > 2*links {
		t.Fatalf("%d slots for %d observed links, want at most %d", len(e.slots), links, 2*links)
	}
}

// mapLinkLoad is the map-backed LinkLoadEstimator the flat table
// replaced, kept as the oracle the table's counts are checked against:
// a count per observed link, halved every linkLoadDecay observations,
// dropped once it decays to 0.
type mapLinkLoad struct {
	counts map[uint64]int
	obs    int
}

func (e *mapLinkLoad) PathCost(p graph.Path) int {
	if p.Hops() == 0 {
		return 0
	}
	return e.counts[graph.PairKey(p[0], p[1])] * p.Hops()
}

func (e *mapLinkLoad) ObserveLink(u, v graph.NodeID) {
	e.counts[graph.PairKey(u, v)]++
	e.obs++
	if e.obs < linkLoadDecay {
		return
	}
	e.obs = 0
	for k, n := range e.counts {
		if n <= 1 {
			delete(e.counts, k)
		} else {
			e.counts[k] = n / 2
		}
	}
}

// TestLinkLoadMatchesMapOracle drives the table and the map oracle with
// one seeded sequence of observations over four decay periods — half on
// eight hot links, whose counts climb into the thousands, half spread
// over every directed link of 48 switches, so the table grows from 2 to
// 8,192 slots and most links decay back to 0 — and requires equal prices at every
// step: for the link just observed, for a random link, and after each
// decay for every link.
func TestLinkLoadMatchesMapOracle(t *testing.T) {
	const nodes = 48
	rng := xrand.New(11)
	tab, ref := NewLinkLoadEstimator(), &mapLinkLoad{counts: map[uint64]int{}}
	slots0 := len(tab.slots)
	path := func(u, v graph.NodeID, hops int) graph.Path {
		p := graph.Path{u, v}
		for len(p) <= hops {
			p = append(p, graph.NodeID(rng.IntN(nodes)))
		}
		return p[:hops+1]
	}
	same := func(step int, p graph.Path) {
		t.Helper()
		if got, want := tab.PathCost(p), ref.PathCost(p); got != want {
			t.Fatalf("step %d: path %v costs %d, oracle %d", step, p, got, want)
		}
	}
	randomLink := func() (graph.NodeID, graph.NodeID) {
		u := rng.IntN(nodes)
		return graph.NodeID(u), graph.NodeID(rng.IntNExcept(nodes, u))
	}
	for step := 1; step <= 4*linkLoadDecay; step++ {
		u, v := randomLink()
		if rng.IntN(2) == 0 {
			u, v = graph.NodeID(rng.IntN(8)), graph.NodeID(8+rng.IntN(2))
		}
		tab.ObserveLink(u, v)
		ref.ObserveLink(u, v)
		same(step, path(u, v, 1+rng.IntN(5)))
		a, b := randomLink()
		same(step, path(a, b, rng.IntN(6)))
		if step%linkLoadDecay != 0 {
			continue
		}
		for a := graph.NodeID(0); a < nodes; a++ {
			for b := graph.NodeID(0); b < nodes; b++ {
				if a != b {
					same(step, graph.Path{a, b})
				}
			}
		}
	}
	t.Logf("%d slots (from %d) hold %d links, %d of them still counted", len(tab.slots), slots0, tab.used, len(ref.counts))
	if len(tab.slots) <= slots0 || 2*tab.used > len(tab.slots) {
		t.Fatalf("%d slots (from %d) hold %d links: want growth to at most half full", len(tab.slots), slots0, tab.used)
	}
	if tab.used <= len(ref.counts) {
		t.Fatalf("no link decayed to 0: %d links held, %d counted", tab.used, len(ref.counts))
	}
}
