package paths

import (
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/jellyfish"
	"repro/internal/ksp"
	"repro/internal/xrand"
)

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	topo, err := jellyfish.New(jellyfish.Params{N: 24, X: 12, Y: 8}, xrand.New(11))
	if err != nil {
		t.Fatal(err)
	}
	return topo.G
}

func TestAllOrderedPairs(t *testing.T) {
	pairs := AllOrderedPairs(4)
	if len(pairs) != 12 {
		t.Fatalf("len = %d, want 12", len(pairs))
	}
	seen := map[Pair]bool{}
	for _, p := range pairs {
		if p.Src == p.Dst {
			t.Fatalf("self pair %v", p)
		}
		if seen[p] {
			t.Fatalf("duplicate pair %v", p)
		}
		seen[p] = true
	}
}

func TestSamplePairs(t *testing.T) {
	rng := xrand.New(1)
	pairs := SamplePairs(10, 30, rng)
	if len(pairs) != 30 {
		t.Fatalf("len = %d", len(pairs))
	}
	seen := map[Pair]bool{}
	for _, p := range pairs {
		if p.Src == p.Dst || p.Src < 0 || p.Src >= 10 || p.Dst < 0 || p.Dst >= 10 {
			t.Fatalf("bad pair %v", p)
		}
		if seen[p] {
			t.Fatalf("duplicate pair %v", p)
		}
		seen[p] = true
	}
	// Requesting at least the full population returns all pairs.
	if got := SamplePairs(5, 100, rng); len(got) != 20 {
		t.Fatalf("oversample returned %d pairs, want 20", len(got))
	}
}

func TestBuildAndLookup(t *testing.T) {
	g := testGraph(t)
	db := BuildAllPairs(g, ksp.Config{Alg: ksp.KSP, K: 4}, 7, 4)
	if db.NumPairs() != 24*23 {
		t.Fatalf("NumPairs = %d", db.NumPairs())
	}
	ps := db.Paths(0, 5)
	if len(ps) != 4 {
		t.Fatalf("got %d paths", len(ps))
	}
	for _, p := range ps {
		if p.Src() != 0 || p.Dst() != 5 || !p.ValidIn(g) {
			t.Fatalf("bad path %v", p)
		}
	}
	if db.Paths(3, 3) != nil {
		t.Fatal("self pair should be nil")
	}
}

func TestLazyEqualsEager(t *testing.T) {
	// A build over a subset of the pairs stores exactly the path sets the
	// all-pairs build stores for them: per-pair reseeding makes a pair's
	// set independent of which other pairs were built.
	g := testGraph(t)
	cfg := ksp.Config{Alg: ksp.REDKSP, K: 4}
	eager := BuildAllPairs(g, cfg, 99, 4)
	var pairs []Pair
	for s := graph.NodeID(0); s < 24; s += 3 {
		for d := graph.NodeID(0); d < 24; d += 5 {
			pairs = append(pairs, Pair{s, d})
		}
	}
	subset := Build(g, cfg, 99, pairs, 3)
	if subset.NumPairs() != len(pairs)-2 { // (0,0) and (15,15) are self pairs
		t.Fatalf("NumPairs = %d, want %d", subset.NumPairs(), len(pairs)-2)
	}
	for _, p := range pairs {
		if p.Src == p.Dst {
			continue
		}
		a, b := eager.Paths(p.Src, p.Dst), subset.Paths(p.Src, p.Dst)
		if len(a) != len(b) {
			t.Fatalf("%d->%d: count %d vs %d", p.Src, p.Dst, len(a), len(b))
		}
		for i := range a {
			if !a[i].Equal(b[i]) {
				t.Fatalf("%d->%d path %d: %v vs %v", p.Src, p.Dst, i, a[i], b[i])
			}
		}
	}
}

func TestConcurrentLazyAccess(t *testing.T) {
	// Readers share one DB without locks; run under -race (make
	// race-paths).
	g := testGraph(t)
	db := BuildAllPairs(g, ksp.Config{Alg: ksp.RKSP, K: 3}, 5, 2)
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := graph.NodeID(0); s < 24; s++ {
				for d := graph.NodeID(0); d < 24; d++ {
					if s == d {
						continue
					}
					ps := db.Paths(s, d)
					if len(ps) == 0 {
						errs <- "empty path set"
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if db.NumPairs() != 24*23 {
		t.Fatalf("NumPairs = %d", db.NumPairs())
	}
}

func TestAnalyzeEdgeDisjointIs100Percent(t *testing.T) {
	// Table III property: EDKSP and rEDKSP give 100% disjoint pairs and
	// MaxShare 1 when k <= y.
	g := testGraph(t)
	pairs := AllOrderedPairs(24)
	for _, alg := range []ksp.Algorithm{ksp.EDKSP, ksp.REDKSP} {
		q := Analyze(g, ksp.Config{Alg: alg, K: 4}, 13, pairs, 4)
		if q.Pairs != len(pairs) {
			t.Fatalf("%v: pairs = %d", alg, q.Pairs)
		}
		if q.DisjointFraction != 1 {
			t.Fatalf("%v: disjoint fraction = %v, want 1", alg, q.DisjointFraction)
		}
		if q.MaxShare != 1 {
			t.Fatalf("%v: max share = %d, want 1", alg, q.MaxShare)
		}
		if q.Fallbacks != 0 {
			t.Fatalf("%v: fallbacks = %d", alg, q.Fallbacks)
		}
		if q.AvgPaths != 4 {
			t.Fatalf("%v: avg paths = %v", alg, q.AvgPaths)
		}
	}
}

func TestAnalyzeKSPSharesLinks(t *testing.T) {
	// Table III/IV property: vanilla KSP has a low disjoint fraction and a
	// MaxShare well above 1 on Jellyfish.
	g := testGraph(t)
	pairs := AllOrderedPairs(24)
	q := Analyze(g, ksp.Config{Alg: ksp.KSP, K: 4}, 13, pairs, 4)
	if q.DisjointFraction > 0.9 {
		t.Fatalf("vanilla KSP disjoint fraction suspiciously high: %v", q.DisjointFraction)
	}
	if q.MaxShare < 2 {
		t.Fatalf("vanilla KSP max share = %d, expected sharing", q.MaxShare)
	}
	if q.AvgLen <= 1 {
		t.Fatalf("avg len = %v", q.AvgLen)
	}
}

func TestAnalyzeAvgLenOrdering(t *testing.T) {
	// Edge-disjoint paths can be longer but never shorter on average than
	// the k shortest paths.
	g := testGraph(t)
	pairs := AllOrderedPairs(24)
	ksp8 := Analyze(g, ksp.Config{Alg: ksp.KSP, K: 4}, 13, pairs, 4)
	ed8 := Analyze(g, ksp.Config{Alg: ksp.EDKSP, K: 4}, 13, pairs, 4)
	if ed8.AvgLen+1e-9 < ksp8.AvgLen {
		t.Fatalf("EDKSP avg len %v < KSP avg len %v", ed8.AvgLen, ksp8.AvgLen)
	}
}

func TestAnalyzeDeterministic(t *testing.T) {
	g := testGraph(t)
	pairs := AllOrderedPairs(24)
	a := Analyze(g, ksp.Config{Alg: ksp.REDKSP, K: 4}, 21, pairs, 4)
	b := Analyze(g, ksp.Config{Alg: ksp.REDKSP, K: 4}, 21, pairs, 2)
	if a != b {
		t.Fatalf("Analyze not deterministic across worker counts:\n%+v\n%+v", a, b)
	}
}

func TestPairMaxShare(t *testing.T) {
	ps := []graph.Path{
		{0, 1, 2},
		{0, 1, 3},
		{0, 1, 4},
		{5, 6},
	}
	if got := pairMaxShare(ps, map[uint64]int{}); got != 3 {
		t.Fatalf("maxShare = %d, want 3", got)
	}
	disjoint := []graph.Path{{0, 1}, {2, 3}}
	if got := pairMaxShare(disjoint, map[uint64]int{}); got != 1 {
		t.Fatalf("maxShare = %d, want 1", got)
	}
}

func TestFallbackCounting(t *testing.T) {
	// Graph with only 2 disjoint paths but K=3 forces the fallback.
	b := graph.NewBuilder(5)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 3)
	b.AddEdge(3, 2)
	b.AddEdge(3, 4)
	b.AddEdge(4, 2)
	g := b.Graph()
	db := Build(g, ksp.Config{Alg: ksp.EDKSP, K: 3}, 1, []Pair{{0, 2}}, 1)
	if db.Fallbacks() != 1 {
		t.Fatalf("fallbacks = %d, want 1", db.Fallbacks())
	}
}
