package jellyfish

import (
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/xrand"
)

func TestValidate(t *testing.T) {
	cases := []struct {
		p  Params
		ok bool
	}{
		{Params{N: 36, X: 24, Y: 16}, true},
		{Params{N: 720, X: 24, Y: 19}, true},
		{Params{N: 2880, X: 48, Y: 38}, true},
		{Params{N: 1, X: 4, Y: 3}, false},  // too few switches
		{Params{N: 10, X: 4, Y: 0}, false}, // no network ports
		{Params{N: 10, X: 3, Y: 4}, false}, // x < y
		{Params{N: 4, X: 8, Y: 5}, false},  // N*y odd
		{Params{N: 4, X: 10, Y: 4}, false}, // y >= N
		{Params{N: 10, X: 4, Y: 4}, true},  // zero terminals is legal
	}
	for _, c := range cases {
		if err := c.p.Validate(); (err == nil) != c.ok {
			t.Errorf("%v: Validate = %v, want ok=%v", c.p, err, c.ok)
		}
	}
}

func TestNewSmallIsRegularAndConnected(t *testing.T) {
	topo := MustNew(Small, xrand.New(1))
	d, reg := topo.G.IsRegular()
	if !reg || d != Small.Y {
		t.Fatalf("degree = %d regular=%v, want %d", d, reg, Small.Y)
	}
	if !topo.G.IsConnected() {
		t.Fatal("small topology disconnected")
	}
	if topo.G.NumNodes() != 36 {
		t.Fatalf("nodes = %d", topo.G.NumNodes())
	}
	if topo.G.NumEdges() != 36*16/2 {
		t.Fatalf("edges = %d, want %d", topo.G.NumEdges(), 36*16/2)
	}
}

func TestNewMediumIsRegularAndConnected(t *testing.T) {
	topo := MustNew(Medium, xrand.New(2))
	d, reg := topo.G.IsRegular()
	if !reg || d != Medium.Y {
		t.Fatalf("degree = %d regular=%v", d, reg)
	}
	if !topo.G.IsConnected() {
		t.Fatal("medium topology disconnected")
	}
}

func TestRegularityProperty(t *testing.T) {
	rng := xrand.New(7)
	f := func(nRaw, yRaw uint8) bool {
		n := int(nRaw%40) + 4
		y := int(yRaw%6) + 3
		if y >= n {
			y = n - 1
		}
		if n*y%2 != 0 {
			n++
		}
		p := Params{N: n, X: y + 2, Y: y}
		if p.Validate() != nil {
			return true // skip invalid combos
		}
		topo, err := New(p, rng.Split())
		if err != nil {
			t.Logf("build %v failed: %v", p, err)
			return false
		}
		d, reg := topo.G.IsRegular()
		return reg && d == y && topo.G.IsConnected()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicConstruction(t *testing.T) {
	a := MustNew(Small, xrand.New(99))
	b := MustNew(Small, xrand.New(99))
	if a.G.NumEdges() != b.G.NumEdges() {
		t.Fatal("same seed produced different edge counts")
	}
	for u := graph.NodeID(0); int(u) < a.N; u++ {
		na, nb := a.G.Neighbors(u), b.G.Neighbors(u)
		if len(na) != len(nb) {
			t.Fatalf("degrees differ at %d", u)
		}
		for i := range na {
			if na[i] != nb[i] {
				t.Fatalf("adjacency differs at %d", u)
			}
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := MustNew(Small, xrand.New(1))
	b := MustNew(Small, xrand.New(2))
	same := true
	for u := graph.NodeID(0); int(u) < a.N && same; u++ {
		na, nb := a.G.Neighbors(u), b.G.Neighbors(u)
		for i := range na {
			if na[i] != nb[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("two seeds produced identical instances")
	}
}

func TestTerminals(t *testing.T) {
	topo := MustNew(Small, xrand.New(3))
	if topo.TerminalsPerSwitch() != 8 {
		t.Fatalf("terminals per switch = %d", topo.TerminalsPerSwitch())
	}
	if topo.NumTerminals() != 288 {
		t.Fatalf("total terminals = %d", topo.NumTerminals())
	}
	if topo.SwitchOf(0) != 0 || topo.SwitchOf(7) != 0 || topo.SwitchOf(8) != 1 {
		t.Fatal("terminal-to-switch mapping wrong")
	}
	if topo.SwitchOf(287) != 35 {
		t.Fatalf("last terminal on switch %d", topo.SwitchOf(287))
	}
	// Switch 2's terminals are 16..23.
	first := 2 * topo.TerminalsPerSwitch()
	if first != 16 || topo.SwitchOf(first-1) != 1 || topo.SwitchOf(first) != 2 || topo.SwitchOf(first+7) != 2 {
		t.Fatalf("switch 2's terminals do not start at %d", first)
	}
}

func TestSwitchOfPanicsOutOfRange(t *testing.T) {
	topo := MustNew(Small, xrand.New(3))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for out-of-range terminal")
		}
	}()
	topo.SwitchOf(288)
}

func TestMetricsSmallMatchesTableI(t *testing.T) {
	// Table I: RRG(36,24,16) has average shortest path length 1.54. RRG
	// instances vary, so accept a small band around the paper's value.
	topo := MustNew(Small, xrand.New(4))
	m := topo.Metrics(0)
	if !m.Connected {
		t.Fatal("disconnected")
	}
	if m.AvgShortestPath < 1.45 || m.AvgShortestPath > 1.65 {
		t.Fatalf("avg shortest path = %.3f, paper reports 1.54", m.AvgShortestPath)
	}
	if m.Diameter > 3 {
		t.Fatalf("diameter = %d, implausible for RRG(36,24,16)", m.Diameter)
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"small", "medium", "large"} {
		if _, err := ByName(name); err != nil {
			t.Errorf("ByName(%q) failed: %v", name, err)
		}
	}
	if _, err := ByName("huge"); err == nil {
		t.Error("ByName should reject unknown names")
	}
}

func TestParamsString(t *testing.T) {
	if s := Small.String(); s != "RRG(36,24,16)" {
		t.Fatalf("String = %q", s)
	}
}

func TestNewRejectsInvalid(t *testing.T) {
	if _, err := New(Params{N: 4, X: 8, Y: 5}, xrand.New(1)); err == nil {
		t.Fatal("invalid params accepted")
	}
}

func TestNoSelfLoopsOrParallelEdges(t *testing.T) {
	// The graph.Builder would panic on self loops and silently dedupe
	// parallel edges; exact regularity plus edge count proves neither
	// occurred.
	for seed := uint64(0); seed < 5; seed++ {
		topo := MustNew(Params{N: 20, X: 8, Y: 6}, xrand.New(seed))
		if topo.G.NumEdges() != 20*6/2 {
			t.Fatalf("seed %d: edges = %d, want 60", seed, topo.G.NumEdges())
		}
		if d, reg := topo.G.IsRegular(); !reg || d != 6 {
			t.Fatalf("seed %d: not 6-regular", seed)
		}
	}
}

func TestParamsAccessor(t *testing.T) {
	topo := MustNew(Params{N: 10, X: 6, Y: 4}, xrand.New(1))
	if topo.Params() != (Params{N: 10, X: 6, Y: 4}) {
		t.Fatalf("Params = %+v", topo.Params())
	}
}
