package paths

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/ksp"
)

// TestLookupTypedErrors is the regression test for the serving-layer
// bugfix: absent pairs must answer a typed error, never an empty path
// set, and Paths must refuse them loudly.
func TestLookupTypedErrors(t *testing.T) {
	g := testGraph(t)
	cfg := ksp.Config{Alg: ksp.REDKSP, K: 4}
	db := Build(g, cfg, 1, []Pair{{Src: 0, Dst: 1}}, 1)

	ps, err := db.Lookup(0, 1)
	if err != nil || len(ps) == 0 {
		t.Fatalf("stored pair: got %d paths, err %v", len(ps), err)
	}

	cases := []struct {
		src, dst graph.NodeID
		want     error
	}{
		{1, 0, ErrNotStored}, // pairs are directed; the reverse was not built
		{2, 3, ErrNotStored},
		{5, 5, ErrSelfPair},
		{-1, 1, ErrOutOfRange},
		{0, graph.NodeID(g.NumNodes()), ErrOutOfRange},
	}
	for _, c := range cases {
		ps, err := db.Lookup(c.src, c.dst)
		if !errors.Is(err, c.want) {
			t.Fatalf("Lookup(%d, %d) = %v, want %v", c.src, c.dst, err, c.want)
		}
		if ps != nil {
			t.Fatalf("Lookup(%d, %d) returned paths alongside the error", c.src, c.dst)
		}
	}

	// Paths panics on the absent pair, naming it, and computes nothing:
	// Lookup still answers ErrNotStored afterwards.
	func() {
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, "pair 1->0") {
				t.Fatalf("Paths(1, 0) panic = %q, want one naming pair 1->0", msg)
			}
		}()
		db.Paths(1, 0)
	}()
	if _, err := db.Lookup(1, 0); !errors.Is(err, ErrNotStored) {
		t.Fatalf("Lookup(1, 0) after Paths = %v, want %v", err, ErrNotStored)
	}
}

func TestLookupNoPath(t *testing.T) {
	// A disconnected pair is stored with zero paths and must answer
	// ErrNoPath, distinguishable from "not stored".
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	g := b.Graph()
	cfg := ksp.Config{Alg: ksp.KSP, K: 2}
	db := Build(g, cfg, 1, []Pair{{Src: 0, Dst: 2}}, 1)

	_, err := db.Lookup(0, 2)
	if !errors.Is(err, ErrNoPath) {
		t.Fatalf("disconnected stored pair: %v, want %v", err, ErrNoPath)
	}
	if _, err := db.Lookup(0, 3); !errors.Is(err, ErrNotStored) {
		t.Fatalf("unstored pair: %v, want %v", err, ErrNotStored)
	}
}
