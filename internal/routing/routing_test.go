package routing

import (
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/jellyfish"
	"repro/internal/ksp"
	"repro/internal/paths"
	"repro/internal/xrand"
)

// mapProvider is a hand-built candidate table for engine-level tests.
type mapProvider map[[2]graph.NodeID][]graph.Path

func (m mapProvider) Paths(s, d graph.NodeID) []graph.Path {
	return m[[2]graph.NodeID{s, d}]
}

// funcEstimator adapts a closure to LoadEstimator.
type funcEstimator func(p graph.Path) int

func (f funcEstimator) PathCost(p graph.Path) int { return f(p) }

func zeroLoad() LoadEstimator { return funcEstimator(func(graph.Path) int { return 0 }) }

// squareView is a 4-cycle with the two opposite-corner paths 0-1-2 and
// 0-3-2 as the pair (0,2) candidate set.
func squareView() *View {
	return &View{
		Provider: mapProvider{
			{0, 2}: {graph.Path{0, 1, 2}, graph.Path{0, 3, 2}},
		},
		NumNodes: 4,
	}
}

func TestByNameAcceptsAllDocumentedNames(t *testing.T) {
	cases := map[string]string{
		"sp": "SP", "SP": "SP",
		"random": "Random", "Random": "Random",
		"round-robin": "Round-Robin", "roundrobin": "Round-Robin", "Round-Robin": "Round-Robin",
		"ugal": "UGAL", "vanilla-ugal": "UGAL", "UGAL": "UGAL",
		"ksp-ugal": "KSP-UGAL", "KSP-UGAL": "KSP-UGAL",
		"ksp-adaptive": "KSP-adaptive", "KSP-adaptive": "KSP-adaptive",
	}
	for name, want := range cases {
		m, err := ByName(name)
		if err != nil {
			t.Errorf("ByName(%q): %v", name, err)
			continue
		}
		if m.Name() != want {
			t.Errorf("ByName(%q).Name() = %q, want %q", name, m.Name(), want)
		}
	}
}

// canonicalNames is the canonical spelling of every mechanism, as the
// ByName error and the usage strings list them.
func canonicalNames() []string { return strings.Split(validNames, ", ") }

func TestByNameErrorListsValidNames(t *testing.T) {
	_, err := ByName("magic")
	if err == nil {
		t.Fatal("bogus mechanism accepted")
	}
	for _, name := range canonicalNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list valid name %q", err, name)
		}
	}
}

func TestNamesRoundTrip(t *testing.T) {
	// Every canonical name resolves, and the canonical spellings cover
	// every mechanism Mechanisms returns plus SP.
	seen := map[string]bool{}
	for _, name := range canonicalNames() {
		m, err := ByName(name)
		if err != nil {
			t.Fatalf("canonical name %q does not resolve: %v", name, err)
		}
		seen[m.Name()] = true
	}
	for _, m := range append(Mechanisms(), SP()) {
		if !seen[m.Name()] {
			t.Errorf("mechanism %q has no canonical name", m.Name())
		}
	}
}

func TestSameSwitchShortCircuit(t *testing.T) {
	v := squareView()
	rng := xrand.New(1)
	for _, m := range append(Mechanisms(), SP()) {
		p, idx := m.NewState().Choose(v, 2, 2, zeroLoad(), rng)
		if len(p) != 1 || p[0] != 2 || idx != -1 {
			t.Errorf("%s: same-switch choice = %v, %d", m.Name(), p, idx)
		}
	}
}

func TestNoCandidatesReturnsNil(t *testing.T) {
	v := &View{Provider: mapProvider{}, NumNodes: 4}
	rng := xrand.New(1)
	for _, m := range append(Mechanisms(), SP()) {
		p, idx := m.NewState().Choose(v, 0, 2, zeroLoad(), rng)
		if p != nil || idx != -1 {
			t.Errorf("%s: choice on empty candidate set = %v, %d", m.Name(), p, idx)
		}
	}
}

// TestUGALKeepsMinimalWhenALegHasNoCandidates pins that a Valiant leg
// with no candidate (a pair cut off on a disconnected graph) leaves UGAL
// on the minimal path, however loaded, instead of failing the choice.
func TestUGALKeepsMinimalWhenALegHasNoCandidates(t *testing.T) {
	// Only the pair itself has paths: every leg through an intermediate
	// is empty.
	v := &View{Provider: mapProvider{{0, 2}: {graph.Path{0, 1, 2}}}, NumNodes: 4, MaxHops: 8}
	load := funcEstimator(func(p graph.Path) int { return 100 - len(p) })
	st := VanillaUGAL().NewState()
	rng := xrand.New(3)
	for trial := 0; trial < 20; trial++ {
		p, idx := st.Choose(v, 0, 2, load, rng)
		if idx != 0 || !p.Equal(graph.Path{0, 1, 2}) {
			t.Fatalf("UGAL chose %v (idx %d) with no detour legs, want the minimal path", p, idx)
		}
	}
}

// TestUnfiredScheduleChoosesAsNoFaults pins that attaching a fault state
// whose only event lies in the future changes nothing: every mechanism
// makes the same (path, index) choices, and leaves its RNG at the same
// point, as on a View with no fault state.
func TestUnfiredScheduleChoosesAsNoFaults(t *testing.T) {
	topo, err := jellyfish.New(jellyfish.Params{N: 16, X: 8, Y: 4}, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	g := topo.G
	db := paths.BuildAllPairs(g, ksp.Config{Alg: ksp.REDKSP, K: 8}, 1, 0)
	victim := db.Paths(0, 5)[0]
	sched := faults.MustSchedule([]faults.Event{{At: 1000, U: victim[0], V: victim[1]}})
	hot := funcEstimator(func(p graph.Path) int { return int(p[1])*7 + p.Hops() })
	for _, m := range append(Mechanisms(), SP()) {
		fst, err := faults.NewState(g, sched, faults.Policy{}, faults.RepairConfigOf(db), 12)
		if err != nil {
			t.Fatal(err)
		}
		fst.Advance(999)
		bare := &View{Provider: db, NumNodes: g.NumNodes(), MaxHops: 12}
		armed := &View{Provider: db, Faults: fst, NumNodes: g.NumNodes(), MaxHops: 12}
		stA, stB := m.NewState(), m.NewState()
		rngA, rngB := xrand.New(5), xrand.New(5)
		traffic := xrand.New(11)
		for i := 0; i < 300; i++ {
			src := graph.NodeID(traffic.IntN(g.NumNodes()))
			dst := graph.NodeID(traffic.IntN(g.NumNodes()))
			pA, iA := stA.Choose(bare, src, dst, hot, rngA)
			pB, iB := stB.Choose(armed, src, dst, hot, rngB)
			if iA != iB || !pA.Equal(pB) {
				t.Fatalf("%s draw %d (%d->%d): no faults chose %v (idx %d), unfired schedule chose %v (idx %d)",
					m.Name(), i, src, dst, pA, iA, pB, iB)
			}
		}
		if a, b := rngA.Uint64(), rngB.Uint64(); a != b {
			t.Fatalf("%s: an unfired schedule changed the RNG stream", m.Name())
		}
	}
}

func TestRoundRobinCyclesPaths(t *testing.T) {
	v := squareView()
	st := RoundRobin().NewState()
	rng := xrand.New(1)
	p1, i1 := st.Choose(v, 0, 2, zeroLoad(), rng)
	p2, i2 := st.Choose(v, 0, 2, zeroLoad(), rng)
	p3, i3 := st.Choose(v, 0, 2, zeroLoad(), rng)
	if i1 != 0 || i2 != 1 || i3 != 0 {
		t.Fatalf("indices = %d, %d, %d, want 0, 1, 0", i1, i2, i3)
	}
	if p1.Equal(p2) {
		t.Fatalf("round robin repeated the path: %v", p1)
	}
	if !p1.Equal(p3) {
		t.Fatalf("round robin did not cycle back: %v vs %v", p1, p3)
	}
}

func TestKSPAdaptiveAvoidsCongestedPath(t *testing.T) {
	v := squareView()
	st := KSPAdaptive().NewState()
	rng := xrand.New(1)
	// The 0-1-2 candidate's first link is congested; the 0-3-2 candidate
	// is free.
	load := funcEstimator(func(p graph.Path) int {
		if p[1] == 1 {
			return 60
		}
		return 0
	})
	for trial := 0; trial < 20; trial++ {
		p, idx := st.Choose(v, 0, 2, load, rng)
		if p[1] == 1 || idx != 1 {
			t.Fatalf("adaptive chose the congested path %v (idx %d)", p, idx)
		}
	}
}

func TestKSPUGALPrefersMinimalUnderHugeBias(t *testing.T) {
	v := squareView()
	st := KSPUGALBiased(1 << 30).NewState()
	rng := xrand.New(1)
	// Even with the minimal path congested, an enormous MIN bias pins the
	// choice to candidate 0.
	load := funcEstimator(func(p graph.Path) int {
		if p[1] == 1 {
			return 1000
		}
		return 0
	})
	for trial := 0; trial < 20; trial++ {
		if _, idx := st.Choose(v, 0, 2, load, rng); idx != 0 {
			t.Fatalf("biased KSP-UGAL left the minimal path (idx %d)", idx)
		}
	}
}

func TestRandomCoversAllCandidates(t *testing.T) {
	v := squareView()
	st := Random().NewState()
	rng := xrand.New(7)
	seen := map[int]int{}
	for trial := 0; trial < 200; trial++ {
		_, idx := st.Choose(v, 0, 2, zeroLoad(), rng)
		seen[idx]++
	}
	if seen[0] == 0 || seen[1] == 0 || len(seen) != 2 {
		t.Fatalf("random choice distribution %v", seen)
	}
}

func TestUGALDivertsOnlyUnderLoad(t *testing.T) {
	// A 4-cycle where every pair has its shortest path as the sole
	// candidate; UGAL's detour must appear only when the minimal path
	// estimate is worse.
	prov := mapProvider{
		{0, 2}: {graph.Path{0, 1, 2}},
		{0, 1}: {graph.Path{0, 1}},
		{0, 3}: {graph.Path{0, 3}},
		{1, 2}: {graph.Path{1, 2}},
		{3, 2}: {graph.Path{3, 2}},
	}
	v := &View{Provider: prov, NumNodes: 4, MaxHops: 8}
	st := VanillaUGAL().NewState()

	// Unloaded: the minimal path wins (its cost ties the detour at 0 and
	// ties keep MIN).
	p, idx := st.Choose(v, 0, 2, zeroLoad(), xrand.New(3))
	if idx != 0 || !p.Equal(graph.Path{0, 1, 2}) {
		t.Fatalf("unloaded UGAL left the minimal path: %v (idx %d)", p, idx)
	}

	// Congest the minimal path's first link: the Valiant detour through
	// switch 3 must win, reported as a composed path with index -1.
	load := funcEstimator(func(p graph.Path) int {
		if len(p) > 1 && p[0] == 0 && p[1] == 1 {
			return 100
		}
		return 0
	})
	p, idx = st.Choose(v, 0, 2, load, xrand.New(3))
	if idx != -1 {
		t.Fatalf("loaded UGAL did not divert: %v (idx %d)", p, idx)
	}
	if p[0] != 0 || p[len(p)-1] != 2 {
		t.Fatalf("detour endpoints wrong: %v", p)
	}
}

// TestUGALTwoSwitches pins that UGAL answers on a topology of two
// switches, where no switch can be the Valiant intermediate: it must take
// the minimal candidate without drawing, with no fault state and with
// faults active on a link the pair does not use. Each choice gets a
// deadline, since an intermediate draw that cannot succeed never
// returns.
func TestUGALTwoSwitches(t *testing.T) {
	prov := mapProvider{
		{0, 1}: {graph.Path{0, 1}},
		{1, 0}: {graph.Path{1, 0}},
	}
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(1, 2)
	fst, err := faults.NewState(b.Graph(), faults.MustSchedule([]faults.Event{{At: 0, U: 1, V: 2}}), faults.Policy{}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	fst.Advance(0)
	// Any detour would look cheaper than the loaded minimal path.
	load := funcEstimator(func(p graph.Path) int { return 100 - len(p) })
	for _, c := range []struct {
		name string
		view *View
	}{
		{"healthy", &View{Provider: prov, NumNodes: 2, MaxHops: 8}},
		{"degraded", &View{Provider: prov, Faults: fst, NumNodes: 2, MaxHops: 8}},
	} {
		if c.name == "degraded" && !c.view.Faults.Active() {
			t.Fatal("fault state is not active")
		}
		rng := xrand.New(5)
		next := xrand.New(5).Uint64()
		done := make(chan struct{})
		var p graph.Path
		var idx int
		go func() {
			defer close(done)
			p, idx = VanillaUGAL().NewState().Choose(c.view, 0, 1, load, rng)
		}()
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatalf("%s: UGAL Choose 0->1 on two switches did not return within 2 s", c.name)
		}
		if idx != 0 || !p.Equal(graph.Path{0, 1}) {
			t.Fatalf("%s: UGAL chose %v (idx %d), want the minimal path 0-1", c.name, p, idx)
		}
		if rng.Uint64() != next {
			t.Fatalf("%s: UGAL drew from the RNG with no intermediate to draw", c.name)
		}
	}
}
