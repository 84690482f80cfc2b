package bench

import (
	"testing"

	"repro/internal/graph"
)

func TestSelfTimesOverlappingChildren(t *testing.T) {
	spans := []Span{
		{ID: 1, Start: 0, End: 100},
		// Two workers' children overlap on [20, 40]; the union is [10, 60].
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 20, End: 60},
		// A child sticking out past its parent counts only inside it.
		{ID: 4, Parent: 1, Start: 90, End: 120},
		// A grandchild does not cover its grandparent directly.
		{ID: 5, Parent: 2, Start: 15, End: 25},
	}
	self := SelfTimes(spans)
	for id, want := range map[uint64]int64{1: 100 - 50 - 10, 2: 30 - 10, 3: 40, 4: 30, 5: 10} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestTracerRecordsOnlyWhenOn(t *testing.T) {
	for _, on := range []bool{false, true} {
		tr := newTracer(on, 7)
		root := tr.start(nil, "root")
		child := tr.start(root, "child")
		child.set("n", 3)
		child.end()
		root.end()
		spans := tr.Spans()
		if !on {
			if len(spans) != 0 {
				t.Errorf("disabled tracer recorded %d spans", len(spans))
			}
			continue
		}
		if len(spans) != 2 || spans[1].Parent != spans[0].ID || spans[1].Attrs["n"] != 3 || spans[0].Trace != 7 {
			t.Errorf("spans = %+v", spans)
		}
	}
}

func TestCountingWrappersCountEveryCall(t *testing.T) {
	var lc layerCalls
	m, p := lc.wrap(true, trivialMech{}, trivialProvider{})
	st := m.NewState()
	const n = 1000
	for i := 0; i < n; i++ {
		st.Choose(nil, 0, 1, nil, nil)
		p.Paths(graph.NodeID(i), 1)
	}
	if lc.choose.calls != n || lc.lookup.calls != n {
		t.Errorf("counted %d Choose and %d lookups, want %d each", lc.choose.calls, lc.lookup.calls, n)
	}
	if lc.choose.timed != n/sampleEvery || lc.lookup.timed != n/sampleEvery {
		t.Errorf("timed %d and %d calls, want %d", lc.choose.timed, lc.lookup.timed, n/sampleEvery)
	}
	if m.Name() != "trivial" {
		t.Errorf("wrapped mechanism renamed to %q", m.Name())
	}
	m2, p2 := lc.wrap(false, trivialMech{}, trivialProvider{})
	if _, ok := m2.(trivialMech); !ok {
		t.Errorf("untraced run got a wrapped mechanism %T", m2)
	}
	if _, ok := p2.(trivialProvider); !ok {
		t.Errorf("untraced run got a wrapped provider %T", p2)
	}
}
