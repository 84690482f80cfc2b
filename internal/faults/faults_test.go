package faults

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/jellyfish"
	"repro/internal/ksp"
	"repro/internal/xrand"
)

// parseString parses a schedule from a string.
func parseString(s string) (*Schedule, error) { return Parse(strings.NewReader(s)) }

// ring builds a cycle graph 0-1-...-(n-1)-0.
func ring(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%n))
	}
	return b.Graph()
}

func TestFaultScheduleSorting(t *testing.T) {
	s, err := NewSchedule([]Event{
		{At: 300, U: 0, V: 1},
		{At: 100, U: 1, V: 2},
		{At: 300, Up: true, U: 1, V: 2},
		{At: 200, U: 2, V: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	ev := s.Events()
	wantAt := []int64{100, 200, 300, 300}
	for i, e := range ev {
		if e.At != wantAt[i] {
			t.Fatalf("event %d at %d, want %d", i, e.At, wantAt[i])
		}
	}
	// Stable: the two cycle-300 events keep their given order.
	if ev[2].Up || !ev[3].Up {
		t.Fatalf("same-cycle events reordered: %v, %v", ev[2], ev[3])
	}
}

func TestFaultScheduleValidation(t *testing.T) {
	for _, bad := range [][]Event{
		{{At: -1, U: 0, V: 1}},
		{{At: 0, U: 3, V: 3}},
		{{At: 0, U: -2, V: 1}},
	} {
		if _, err := NewSchedule(bad); err == nil {
			t.Fatalf("NewSchedule(%v) succeeded", bad)
		}
	}
	var nilSched *Schedule
	if nilSched.Len() != 0 || !nilSched.Empty() || nilSched.Events() != nil {
		t.Fatal("nil schedule is not empty")
	}
}

func TestFaultRandomDeterministic(t *testing.T) {
	g := ring(16)
	a, err := Random(g, 4, 1000, xrand.New(42))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Random(g, 4, 1000, xrand.New(42))
	if a.Format() != b.Format() {
		t.Fatalf("same seed, different schedules:\n%s\nvs\n%s", a.Format(), b.Format())
	}
	c, _ := Random(g, 4, 1000, xrand.New(43))
	if a.Format() == c.Format() {
		t.Fatal("different seeds produced identical schedules")
	}
	if a.Len() != 4 {
		t.Fatalf("got %d events, want 4", a.Len())
	}
	seen := map[uint64]struct{}{}
	for _, e := range a.Events() {
		if !g.HasEdge(e.U, e.V) {
			t.Fatalf("event %v on non-edge", e)
		}
		key := graph.UndirectedEdgeKey(e.U, e.V)
		if _, dup := seen[key]; dup {
			t.Fatalf("edge {%d,%d} failed twice", e.U, e.V)
		}
		seen[key] = struct{}{}
	}
	if _, err := Random(g, 17, 0, xrand.New(1)); err == nil {
		t.Fatal("failing more links than exist succeeded")
	}
}

func TestFaultRoundTrip(t *testing.T) {
	g := ring(8)
	s, err := Random(g, 3, 250, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	up, _ := NewSchedule(append(s.Events(), Event{At: 900, Up: true, U: s.Events()[0].U, V: s.Events()[0].V}))
	text := up.Format()
	back, err := parseString(text)
	if err != nil {
		t.Fatal(err)
	}
	if back.Format() != text {
		t.Fatalf("round trip changed schedule:\n%s\nvs\n%s", text, back.Format())
	}
}

func TestFaultParseErrors(t *testing.T) {
	for _, bad := range []string{
		"",
		"PATHS 1\n",
		"FAULTS 1\ndown 5 0\n",
		"FAULTS 1\nsideways 5 0 1\n",
		"FAULTS 1\ndown x 0 1\n",
		"FAULTS 1\ndown 5 x 1\n",
		"FAULTS 1\ndown 5 0 x\n",
		"FAULTS 1\ndown -5 0 1\n",
		"FAULTS 1\ndown 5 0 0\n",
	} {
		if _, err := parseString(bad); err == nil {
			t.Fatalf("parseString(%q) succeeded", bad)
		}
	}
	// Comments and blank lines are fine.
	s, err := parseString("# header comment\n\nFAULTS 1\n# event\n  down 5 0 1  \n\n")
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Fatalf("got %d events, want 1", s.Len())
	}
}

func TestFaultParseSpec(t *testing.T) {
	g := ring(10)
	for _, spec := range []string{"", "none"} {
		s, err := ParseSpec(spec, g, 1)
		if err != nil || !s.Empty() {
			t.Fatalf("ParseSpec(%q) = %v, %v; want empty", spec, s, err)
		}
	}
	s, err := ParseSpec("random:2@100,3@200", g, 5)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 5 {
		t.Fatalf("got %d events, want 5", s.Len())
	}
	again, _ := ParseSpec("random:2@100,3@200", g, 5)
	if s.Format() != again.Format() {
		t.Fatal("ParseSpec random form is not deterministic")
	}
	for _, bad := range []string{"random:x@100", "random:2@x", "random:2", "/nonexistent/file"} {
		if _, err := ParseSpec(bad, g, 1); err == nil {
			t.Fatalf("ParseSpec(%q) succeeded", bad)
		}
	}
}

func TestFaultStateAdvance(t *testing.T) {
	g := ring(6)
	sched := MustSchedule([]Event{
		{At: 10, U: 0, V: 1},
		{At: 10, U: 2, V: 3},
		{At: 50, Up: true, U: 0, V: 1},
	})
	st, err := NewState(g, sched, Policy{}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Active() {
		t.Fatal("state active before any event")
	}
	if got := st.Advance(9); got != nil {
		t.Fatalf("Advance(9) fired %v", got)
	}
	fired := st.Advance(10)
	if len(fired) != 2 || !st.Active() {
		t.Fatalf("Advance(10): fired=%v active=%v", fired, st.Active())
	}
	if !st.LinkDown(g.LinkID(0, 1)) || !st.LinkDown(g.LinkID(1, 0)) {
		t.Fatal("directed links of failed edge not down")
	}
	if !st.LinkDown(g.LinkID(3, 2)) {
		t.Fatal("edge {2,3} not down")
	}
	if st.LinkDown(g.LinkID(4, 5)) {
		t.Fatal("healthy link reported down")
	}
	fired = st.Advance(100)
	if len(fired) != 1 || st.LinkDown(g.LinkID(0, 1)) || st.LinkDown(g.LinkID(1, 0)) {
		t.Fatalf("up event not applied: fired=%v", fired)
	}
	if !st.Active() || !st.LinkDown(g.LinkID(2, 3)) {
		t.Fatal("state inactive while edge {2,3} is still down")
	}
	downs, ups, _ := st.Counters()
	if downs != 2 || ups != 1 {
		t.Fatalf("counters = %d downs, %d ups", downs, ups)
	}
	// Events on non-edges are rejected at construction.
	if _, err := NewState(g, MustSchedule([]Event{{U: 0, V: 3}}), Policy{}, nil, 0); err == nil {
		t.Fatal("NewState accepted event on non-edge")
	}
}

// TestFaultRepeatedEvents pins what Advance promises for repeated
// events: a down event on an edge already down (named in either
// direction) and an up event on an edge already up are counted but change
// nothing, so at every step the state reads as under the schedule with
// one down and one up.
func TestFaultRepeatedEvents(t *testing.T) {
	g := ring(6)
	repair := &RepairConfig{KSP: ksp.Config{Alg: ksp.KSP, K: 2}, Seed: 5}
	newState := func(events []Event) *State {
		st, err := NewState(g, MustSchedule(events), Policy{}, repair, 0)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	repeated := newState([]Event{
		{At: 10, U: 0, V: 1},
		{At: 20, U: 1, V: 0},
		{At: 30, Up: true, U: 0, V: 1},
		{At: 40, Up: true, U: 1, V: 0},
	})
	once := newState([]Event{{At: 10, U: 0, V: 1}, {At: 30, Up: true, U: 0, V: 1}})
	samePaths := func(a, b []graph.Path) bool {
		return slices.EqualFunc(a, b, func(p, q graph.Path) bool { return slices.Equal(p, q) })
	}
	ps := []graph.Path{{0, 1}}
	for _, clock := range []int64{10, 20, 30, 40} {
		repeated.Advance(clock)
		once.Advance(clock)
		if repeated.Active() != once.Active() {
			t.Fatalf("cycle %d: Active = %v, want %v", clock, repeated.Active(), once.Active())
		}
		for _, l := range []int32{g.LinkID(0, 1), g.LinkID(1, 0)} {
			if repeated.LinkDown(l) != once.LinkDown(l) {
				t.Fatalf("cycle %d: LinkDown(%d) = %v, want %v", clock, l, repeated.LinkDown(l), once.LinkDown(l))
			}
		}
		got, gotMask := repeated.Candidates(0, 1, ps)
		want, wantMask := once.Candidates(0, 1, ps)
		if gotMask != wantMask || !samePaths(got, want) {
			t.Fatalf("cycle %d: Candidates = %v %b, want %v %b", clock, got, gotMask, want, wantMask)
		}
	}
	if downs, ups, _ := repeated.Counters(); downs != 2 || ups != 2 {
		t.Fatalf("counters = %d downs, %d ups, want 2 and 2", downs, ups)
	}
	// A repair computed after the events runs on the intact ring again.
	got, want := repeated.repairSet(0, 1), once.repairSet(0, 1)
	if len(got) != 2 || !slices.Equal(got[0], graph.Path{0, 1}) || !samePaths(got, want) {
		t.Fatalf("repair after the events = %v, want %v", got, want)
	}
}

func TestFaultLiveMaskAndCandidates(t *testing.T) {
	g := ring(6)
	// Two candidate 0→3 paths: clockwise 0-1-2-3 and counterclockwise
	// 0-5-4-3.
	cw := graph.Path{0, 1, 2, 3}
	ccw := graph.Path{0, 5, 4, 3}
	ps := []graph.Path{cw, ccw}
	sched := MustSchedule([]Event{
		{At: 10, U: 1, V: 2},
		{At: 20, U: 4, V: 5},
		{At: 30, Up: true, U: 1, V: 2},
	})
	st, err := NewState(g, sched, Policy{}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if mask := st.liveMask(0, 3, ps); mask != 0b11 {
		t.Fatalf("pre-fault mask %b, want 11", mask)
	}
	st.Advance(10)
	if mask := st.liveMask(0, 3, ps); mask != 0b10 {
		t.Fatalf("mask after killing cw %b, want 10", mask)
	}
	// Cached: same epoch returns the same mask.
	if mask := st.liveMask(0, 3, ps); mask != 0b10 {
		t.Fatal("cached mask differs")
	}
	cand, mask := st.Candidates(0, 3, ps)
	if len(cand) != 2 || mask != 0b10 {
		t.Fatalf("Candidates = %d paths, mask %b", len(cand), mask)
	}
	st.Advance(20) // both paths dead, no repair configured
	cand, mask = st.Candidates(0, 3, ps)
	if cand != nil || mask != 0 {
		t.Fatalf("dead pair without repair: %v, %b", cand, mask)
	}
	st.Advance(30) // cw revives
	if mask := st.liveMask(0, 3, ps); mask != 0b01 {
		t.Fatalf("mask after revival %b, want 01", mask)
	}
}

func TestFaultRepair(t *testing.T) {
	topo := jellyfish.MustNew(jellyfish.Params{N: 20, X: 8, Y: 6}, xrand.New(9))
	g := topo.G
	cfg := ksp.Config{Alg: ksp.REDKSP, K: 4}
	comp := ksp.NewComputer(g, cfg, xrand.New(77))
	comp.Reseed(77, graph.PairKey(0, 5))
	ps := comp.Paths(0, 5)
	if len(ps) == 0 {
		t.Fatal("no baseline paths")
	}
	// Fail every link of every baseline path so the pair's whole set dies.
	var events []Event
	seen := map[uint64]struct{}{}
	for _, p := range ps {
		for i := 0; i+1 < len(p); i++ {
			key := graph.UndirectedEdgeKey(p[i], p[i+1])
			if _, dup := seen[key]; dup {
				continue
			}
			seen[key] = struct{}{}
			events = append(events, Event{At: 5, U: p[i], V: p[i+1]})
		}
	}
	st, err := NewState(g, MustSchedule(events), Policy{}, &RepairConfig{KSP: cfg, Seed: 77}, 0)
	if err != nil {
		t.Fatal(err)
	}
	st.Advance(5)
	if st.liveMask(0, 5, ps) != 0 {
		t.Fatal("some baseline path survived the full kill")
	}
	cand, mask := st.Candidates(0, 5, ps)
	if len(cand) == 0 || mask == 0 {
		t.Fatal("repair produced no paths on a degraded but connected graph")
	}
	for _, p := range cand {
		if !st.PathAlive(p) {
			t.Fatalf("repaired path %v crosses a failed link", p)
		}
		if !p.ValidIn(g) {
			t.Fatalf("repaired path %v invalid in the base graph", p)
		}
	}
	// Deterministic and cached per epoch.
	again, _ := st.Candidates(0, 5, ps)
	if &again[0][0] != &cand[0][0] {
		t.Fatal("second Candidates call recomputed instead of using the cache")
	}
	if _, _, repairs := st.Counters(); repairs != 1 {
		t.Fatalf("repairs = %d, want 1", repairs)
	}
	// NoRepair policy disables recomputation even with a RepairConfig.
	st2, _ := NewState(g, MustSchedule(events), Policy{NoRepair: true}, &RepairConfig{KSP: cfg, Seed: 77}, 0)
	st2.Advance(5)
	if got := st2.repairSet(0, 5); got != nil {
		t.Fatalf("NoRepair state repaired anyway: %v", got)
	}
}

// TestFaultMaskHelpers checks FullMask, NthSet and NextSet against
// bit-by-bit scans on random masks, on masks contiguous from bit 0 (the
// shortcut NthSet takes for a set with no failed link), at n = 0, 1, 63
// and 64 and at every start position, including ones at or past n.
func TestFaultMaskHelpers(t *testing.T) {
	if PopCount(0b1011) != 3 {
		t.Fatal("PopCount wrong")
	}
	if FirstSet(0b1000) != 3 || FirstSet(0) != 64 {
		t.Fatal("FirstSet wrong")
	}
	fullMask := func(n int) uint64 {
		var m uint64
		for i := 0; i < n && i < 64; i++ {
			m |= 1 << uint(i)
		}
		return m
	}
	nthSet := func(mask uint64, n int) int {
		for i := 0; i < 64; i++ {
			if mask&(1<<uint(i)) != 0 {
				if n == 0 {
					return i
				}
				n--
			}
		}
		return -1
	}
	nextSet := func(mask uint64, from, n int) int {
		for i := from; i < n && i < 64; i++ {
			if mask&(1<<uint(i)) != 0 {
				return i
			}
		}
		for i := 0; i < n && i < 64; i++ {
			if mask&(1<<uint(i)) != 0 {
				return i
			}
		}
		return -1
	}
	for _, n := range []int{0, 1, 2, 7, 8, 63, 64, 65, 200} {
		if got, want := FullMask(n), fullMask(n); got != want {
			t.Fatalf("FullMask(%d) = %#x, want %#x", n, got, want)
		}
	}
	rng := xrand.New(3)
	var masks []uint64
	for n := 0; n <= 64; n++ {
		masks = append(masks, fullMask(n))
	}
	for i := 0; i < 400; i++ {
		m := rng.Uint64()
		switch i % 4 {
		case 1:
			m &= rng.Uint64() // sparser
		case 2:
			m &= fullMask(1 + rng.IntN(64)) // confined to the low bits
		case 3:
			m |= fullMask(rng.IntN(64)) // a contiguous run plus stray bits
		}
		masks = append(masks, m)
	}
	for _, m := range masks {
		for n := 0; n < PopCount(m); n++ {
			if got, want := NthSet(m, n), nthSet(m, n); got != want {
				t.Fatalf("NthSet(%#x, %d) = %d, want %d", m, n, got, want)
			}
		}
		for _, n := range []int{1, 2, 5, 8, 63, 64} {
			if m&fullMask(n) == 0 {
				continue
			}
			for from := 0; from <= n+1; from++ {
				if got, want := NextSet(m, from, n), nextSet(m, from, n); got != want {
					t.Fatalf("NextSet(%#x, %d, %d) = %d, want %d", m, from, n, got, want)
				}
			}
		}
	}
}

func TestFaultPolicyNames(t *testing.T) {
	for _, name := range []string{"reroute", "drop", "reroute-norepair", "drop-norepair"} {
		p, err := PolicyByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.String() != name {
			t.Fatalf("PolicyByName(%q).String() = %q", name, p.String())
		}
	}
	if p, err := PolicyByName(""); err != nil || p != (Policy{}) {
		t.Fatal("empty policy name is not the default")
	}
	if _, err := PolicyByName("explode"); err == nil || !strings.Contains(err.Error(), "explode") {
		t.Fatalf("unknown policy error = %v", err)
	}
}
