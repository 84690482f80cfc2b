package ksp

import (
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/jellyfish"
	"repro/internal/xrand"
)

// figure3 builds the example network from the paper's Figure 3.
// Node ids: S1=0, A=1, B=2, C=3, E=4, F=5, G=6, H=7, I=8, D1=9.
// From S1 to D1 there is one 3-hop path (S1-A-G-D1) and six 4-hop paths.
func figure3() *graph.Graph {
	b := graph.NewBuilder(10)
	edges := [][2]graph.NodeID{
		{0, 1}, {0, 2}, {0, 3}, // S1-A, S1-B, S1-C
		{1, 6}, {1, 4}, // A-G, A-E
		{2, 4},         // B-E
		{3, 5},         // C-F
		{4, 6}, {4, 7}, // E-G, E-H
		{5, 7}, {5, 8}, // F-H, F-I
		{6, 9}, {7, 9}, {8, 9}, // G-D1, H-D1, I-D1
	}
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Graph()
}

const s1, d1 = graph.NodeID(0), graph.NodeID(9)

func TestVanillaKSPFigure3Bias(t *testing.T) {
	// The paper: vanilla KSP(3) finds P0 = S1-A-G-D1, P1 = S1-A-E-G-D1,
	// P2 = S1-A-E-H-D1 — all three sharing the link S1-A.
	c := NewComputer(figure3(), Config{Alg: KSP, K: 3}, nil)
	paths := c.Paths(s1, d1)
	if len(paths) != 3 {
		t.Fatalf("got %d paths", len(paths))
	}
	want := []graph.Path{
		{0, 1, 6, 9},
		{0, 1, 4, 6, 9},
		{0, 1, 4, 7, 9},
	}
	for i := range want {
		if !paths[i].Equal(want[i]) {
			t.Fatalf("path %d = %v, want %v (all %v)", i, paths[i], want[i], paths)
		}
	}
	// The bias: every path uses S1->A.
	for _, p := range paths {
		if p[1] != 1 {
			t.Fatalf("expected the S1->A bias, got %v", p)
		}
	}
}

func TestEDKSPFigure3(t *testing.T) {
	// The paper: EDKSP(3) finds P0, P4 = S1-B-E-H-D1 and P6 = S1-C-F-I-D1.
	c := NewComputer(figure3(), Config{Alg: EDKSP, K: 3}, nil)
	paths := c.Paths(s1, d1)
	if len(paths) != 3 {
		t.Fatalf("got %d paths: %v", len(paths), paths)
	}
	want := []graph.Path{
		{0, 1, 6, 9},
		{0, 2, 4, 7, 9},
		{0, 3, 5, 8, 9},
	}
	for i := range want {
		if !paths[i].Equal(want[i]) {
			t.Fatalf("path %d = %v, want %v", i, paths[i], want[i])
		}
	}
	if c.Fallbacks() != 0 {
		t.Fatalf("fallbacks = %d", c.Fallbacks())
	}
	assertPairwiseDisjoint(t, paths)
}

func TestRKSPFigure3ExploresAlternatives(t *testing.T) {
	// rKSP(3) must still return the 3-hop path first and two 4-hop paths,
	// but across repetitions the 4-hop choices should cover several of the
	// six candidates instead of always P1, P2.
	g := figure3()
	seenSecondHop := map[graph.NodeID]bool{}
	for seed := uint64(0); seed < 40; seed++ {
		c := NewComputer(g, Config{Alg: RKSP, K: 3}, xrand.New(seed))
		paths := c.Paths(s1, d1)
		if len(paths) != 3 {
			t.Fatalf("seed %d: got %d paths", seed, len(paths))
		}
		if paths[0].Hops() != 3 || paths[1].Hops() != 4 || paths[2].Hops() != 4 {
			t.Fatalf("seed %d: hop profile %v", seed, paths)
		}
		for _, p := range paths[1:] {
			seenSecondHop[p[1]] = true
		}
	}
	if len(seenSecondHop) < 2 {
		t.Fatalf("randomized KSP never varied the first hop: %v", seenSecondHop)
	}
}

func TestKSPDeterministicRepeatable(t *testing.T) {
	g := figure3()
	a := NewComputer(g, Config{Alg: KSP, K: 5}, nil).Paths(s1, d1)
	b := NewComputer(g, Config{Alg: KSP, K: 5}, nil).Paths(s1, d1)
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatalf("path %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestYenFindsAllSevenPaths(t *testing.T) {
	// Figure 3 has exactly 7 loopless paths of length <= 4 from S1 to D1;
	// asking for many paths must enumerate them in nondecreasing length
	// without duplicates.
	c := NewComputer(figure3(), Config{Alg: KSP, K: 20}, nil)
	paths := c.Paths(s1, d1)
	if len(paths) < 7 {
		t.Fatalf("only %d paths found", len(paths))
	}
	seen := map[string]bool{}
	for i, p := range paths {
		if !p.Loopless() || !p.ValidIn(figure3()) {
			t.Fatalf("path %d invalid: %v", i, p)
		}
		if p.Src() != s1 || p.Dst() != d1 {
			t.Fatalf("path %d endpoints wrong: %v", i, p)
		}
		if i > 0 && p.Hops() < paths[i-1].Hops() {
			t.Fatalf("paths not sorted at %d: %v", i, paths)
		}
		if seen[p.String()] {
			t.Fatalf("duplicate path %v", p)
		}
		seen[p.String()] = true
	}
	// The first 7 are the 3-hop path plus six 4-hop paths.
	if paths[0].Hops() != 3 {
		t.Fatal("first path not the shortest")
	}
	four := 0
	for _, p := range paths[1:7] {
		if p.Hops() == 4 {
			four++
		}
	}
	if four != 6 {
		t.Fatalf("expected six 4-hop paths, got %d: %v", four, paths[:7])
	}
}

func assertPairwiseDisjoint(t *testing.T, paths []graph.Path) {
	t.Helper()
	used := map[uint64]int{}
	for i, p := range paths {
		for h := 0; h+1 < len(p); h++ {
			key := graph.UndirectedEdgeKey(p[h], p[h+1])
			if j, ok := used[key]; ok {
				t.Fatalf("paths %d and %d share an edge: %v / %v", j, i, paths[j], p)
			}
			used[key] = i
		}
	}
}

func smallJellyfish(t *testing.T, seed uint64) *graph.Graph {
	t.Helper()
	topo, err := jellyfish.New(jellyfish.Params{N: 24, X: 12, Y: 8}, xrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return topo.G
}

func TestSelectorsPropertyOnJellyfish(t *testing.T) {
	g := smallJellyfish(t, 1)
	eng := graph.NewSPEngine(g, graph.TieDeterministic, nil)
	for _, alg := range Algorithms {
		c := NewComputer(g, Config{Alg: alg, K: 4}, xrand.New(9))
		for src := graph.NodeID(0); src < 24; src += 5 {
			for dst := graph.NodeID(0); dst < 24; dst += 7 {
				if src == dst {
					if got := c.Paths(src, dst); got != nil {
						t.Fatalf("%v: self pair returned paths", alg)
					}
					continue
				}
				paths := c.Paths(src, dst)
				if len(paths) == 0 || len(paths) > 4 {
					t.Fatalf("%v %d->%d: %d paths", alg, src, dst, len(paths))
				}
				sp, _ := eng.ShortestPath(src, dst)
				if paths[0].Hops() != sp.Hops() {
					t.Fatalf("%v %d->%d: first path %d hops, shortest is %d",
						alg, src, dst, paths[0].Hops(), sp.Hops())
				}
				for i, p := range paths {
					if p.Src() != src || p.Dst() != dst {
						t.Fatalf("%v: endpoints wrong: %v", alg, p)
					}
					if !p.Loopless() || !p.ValidIn(g) {
						t.Fatalf("%v: invalid path %v", alg, p)
					}
					if i > 0 && p.Hops() < paths[i-1].Hops() {
						t.Fatalf("%v: not sorted: %v", alg, paths)
					}
				}
				if alg.EdgeDisjoint() && c.Fallbacks() == 0 {
					assertPairwiseDisjoint(t, paths)
				}
			}
		}
	}
}

func TestKSPAndRKSPSameLengthProfile(t *testing.T) {
	// The multiset of k-shortest path lengths is unique even though the
	// paths are not; randomization must not change it.
	g := smallJellyfish(t, 3)
	det := NewComputer(g, Config{Alg: KSP, K: 6}, nil)
	rnd := NewComputer(g, Config{Alg: RKSP, K: 6}, xrand.New(5))
	for src := graph.NodeID(0); src < 24; src += 3 {
		for dst := graph.NodeID(0); dst < 24; dst += 4 {
			if src == dst {
				continue
			}
			a, b := det.Paths(src, dst), rnd.Paths(src, dst)
			if len(a) != len(b) {
				t.Fatalf("%d->%d: count %d vs %d", src, dst, len(a), len(b))
			}
			for i := range a {
				if a[i].Hops() != b[i].Hops() {
					t.Fatalf("%d->%d: length profile differs at %d: %v vs %v",
						src, dst, i, a, b)
				}
			}
		}
	}
}

func TestYenPathsAreDistinct(t *testing.T) {
	g := smallJellyfish(t, 4)
	c := NewComputer(g, Config{Alg: RKSP, K: 8}, xrand.New(6))
	for src := graph.NodeID(0); src < 24; src += 6 {
		for dst := graph.NodeID(0); dst < 24; dst += 5 {
			if src == dst {
				continue
			}
			paths := c.Paths(src, dst)
			seen := map[string]bool{}
			for _, p := range paths {
				if seen[p.String()] {
					t.Fatalf("%d->%d: duplicate %v", src, dst, p)
				}
				seen[p.String()] = true
			}
		}
	}
}

func TestEDFallback(t *testing.T) {
	// 0-1-2 / 0-3-2 / 0-3-4-2: only two edge-disjoint paths exist, but a
	// third distinct path does.
	b := graph.NewBuilder(5)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 3)
	b.AddEdge(3, 2)
	b.AddEdge(3, 4)
	b.AddEdge(4, 2)
	g := b.Graph()

	with := NewComputer(g, Config{Alg: EDKSP, K: 3}, nil)
	paths := with.Paths(0, 2)
	if len(paths) != 3 {
		t.Fatalf("fallback returned %d paths: %v", len(paths), paths)
	}
	if with.Fallbacks() != 1 {
		t.Fatalf("fallbacks = %d, want 1", with.Fallbacks())
	}

	without := NewComputer(g, Config{Alg: EDKSP, K: 3, DisableEDFallback: true}, nil)
	paths = without.Paths(0, 2)
	if len(paths) != 2 {
		t.Fatalf("without fallback got %d paths: %v", len(paths), paths)
	}
	assertPairwiseDisjoint(t, paths)
}

func TestEDKSPNoFallbackOnJellyfish(t *testing.T) {
	// The paper: with k=8 and practical y, edge-disjoint paths always
	// exist. Verify on a y=8 instance with k=4 (k <= y is the requirement).
	g := smallJellyfish(t, 8)
	c := NewComputer(g, Config{Alg: EDKSP, K: 4, DisableEDFallback: true}, nil)
	for src := graph.NodeID(0); src < 24; src++ {
		for dst := graph.NodeID(0); dst < 24; dst++ {
			if src == dst {
				continue
			}
			if got := len(c.Paths(src, dst)); got != 4 {
				t.Fatalf("%d->%d: only %d disjoint paths", src, dst, got)
			}
		}
	}
}

// --- Menger cross-checks: the greedy Remove-Find result never exceeds the
// max-flow optimum, and on Jellyfish with k <= y it achieves exactly k.

func TestEDKSPNeverExceedsMaxFlow(t *testing.T) {
	g := smallJellyfish(t, 6)
	c := NewComputer(g, Config{Alg: EDKSP, K: 16, DisableEDFallback: true}, nil)
	for src := graph.NodeID(0); src < 24; src += 3 {
		for dst := graph.NodeID(0); dst < 24; dst += 7 {
			if src == dst {
				continue
			}
			got := len(c.Paths(src, dst))
			max := graph.MaxEdgeDisjointPaths(g, src, dst)
			if got > max {
				t.Fatalf("%d->%d: Remove-Find found %d disjoint paths, max-flow says %d",
					src, dst, got, max)
			}
		}
	}
}

func TestJellyfishHasFullFlowBetweenAllPairs(t *testing.T) {
	// The paper's claim behind Table III: with practical y, k=8 <= y
	// edge-disjoint paths exist between all pairs. Verify via max flow on a
	// y=8 instance: every pair admits y disjoint paths (RRGs are whp
	// y-connected).
	g := smallJellyfish(t, 7)
	for src := graph.NodeID(0); src < 24; src += 5 {
		for dst := graph.NodeID(0); dst < 24; dst += 6 {
			if src == dst {
				continue
			}
			if flow := graph.MaxEdgeDisjointPaths(g, src, dst); flow != 8 {
				t.Fatalf("%d->%d: max flow %d, want 8 on a y=8 RRG", src, dst, flow)
			}
		}
	}
}

func TestUnreachablePair(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	g := b.Graph()
	for _, alg := range Algorithms {
		c := NewComputer(g, Config{Alg: alg, K: 3}, xrand.New(1))
		if got := c.Paths(0, 3); got != nil {
			t.Fatalf("%v: unreachable pair returned %v", alg, got)
		}
	}
}

func TestAlgorithmNames(t *testing.T) {
	for _, c := range []struct {
		a    Algorithm
		want string
	}{{KSP, "KSP"}, {RKSP, "rKSP"}, {EDKSP, "EDKSP"}, {REDKSP, "rEDKSP"}} {
		if c.a.String() != c.want {
			t.Errorf("String(%d) = %q", int(c.a), c.a.String())
		}
		back, err := ByName(c.want)
		if err != nil || back != c.a {
			t.Errorf("ByName(%q) = %v, %v", c.want, back, err)
		}
	}
	// LLSKR and the node-disjoint selectors were retired: their names,
	// e.g. from an old cache file or a jfserve topo-load, must fail.
	for _, name := range []string{"bogus", "LLSKR", "ndksp"} {
		if _, err := ByName(name); err == nil {
			t.Errorf("ByName accepted %q", name)
		}
	}
}

func TestNewComputerValidation(t *testing.T) {
	g := figure3()
	mustPanic(t, func() { NewComputer(g, Config{Alg: KSP, K: 0}, nil) })
	mustPanic(t, func() { NewComputer(g, Config{Alg: RKSP, K: 2}, nil) })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}

func TestSelectorsPropertyOnIrregularGraphs(t *testing.T) {
	// The selectors must stay correct on arbitrary (non-regular, possibly
	// low-connectivity) graphs, not just Jellyfish RRGs.
	rng := xrand.New(2027)
	f := func(seedRaw uint16, nRaw, algRaw uint8) bool {
		n := int(nRaw%30) + 5
		// Erdos-Renyi-ish graph with moderate density.
		b := graph.NewBuilder(n)
		grng := xrand.New(uint64(seedRaw))
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if grng.Float64() < 0.15 {
					b.AddEdge(graph.NodeID(i), graph.NodeID(j))
				}
			}
		}
		g := b.Graph()
		alg := Algorithms[int(algRaw)%len(Algorithms)]
		c := NewComputer(g, Config{Alg: alg, K: 3}, rng.Split())
		src := graph.NodeID(grng.IntN(n))
		dst := graph.NodeID(grng.IntN(n))
		ps := c.Paths(src, dst)
		if src == dst {
			return ps == nil
		}
		for i, p := range ps {
			if p.Src() != src || p.Dst() != dst || !p.Loopless() || !p.ValidIn(g) {
				return false
			}
			if i > 0 && p.Hops() < ps[i-1].Hops() {
				return false
			}
		}
		return len(ps) <= 3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
