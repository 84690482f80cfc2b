package paths

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/jellyfish"
	"repro/internal/ksp"
	"repro/internal/xrand"
)

// checkAgainstOracle compares Lookup and Paths with a map from each
// stored pair to its path set, for every (s, d) in [-1, n]²: stored
// pairs, pairs absent from a partial row, self pairs and out-of-range
// ids. Paths must panic on every in-range pair the oracle lacks.
func checkAgainstOracle(t *testing.T, db *DB, oracle map[uint64][]graph.Path) {
	t.Helper()
	n := graph.NodeID(db.Graph().NumNodes())
	for s := graph.NodeID(-1); s <= n; s++ {
		for d := graph.NodeID(-1); d <= n; d++ {
			want, stored := oracle[graph.PairKey(s, d)]
			ps, err := db.Lookup(s, d)
			var wantErr error
			switch {
			case s < 0 || s >= n || d < 0 || d >= n:
				wantErr = ErrOutOfRange
			case s == d:
				wantErr = ErrSelfPair
			case !stored:
				wantErr = ErrNotStored
			}
			if wantErr != nil {
				if !errors.Is(err, wantErr) || ps != nil {
					t.Fatalf("Lookup(%d, %d) = %d paths, %v; want %v", s, d, len(ps), err, wantErr)
				}
				if wantErr == ErrNotStored && !panics(func() { db.Paths(s, d) }) {
					t.Fatalf("Paths(%d, %d) on an absent pair did not panic", s, d)
				}
				continue
			}
			if err != nil || !samePathSet(ps, want) {
				t.Fatalf("Lookup(%d, %d) = %v, %v; want %v", s, d, ps, err, want)
			}
			if got := db.Paths(s, d); !samePathSet(got, want) {
				t.Fatalf("Paths(%d, %d) = %v, want %v", s, d, got, want)
			}
		}
		if s >= 0 && s < n && db.Paths(s, s) != nil {
			t.Fatalf("Paths(%d, %d) is not nil", s, s)
		}
	}
	if got := db.NumPairs(); got != len(oracle) {
		t.Fatalf("NumPairs = %d, want %d", got, len(oracle))
	}
}

// panics reports whether f panics.
func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

func samePathSet(a, b []graph.Path) bool {
	return slices.EqualFunc(a, b, func(p, q graph.Path) bool { return slices.Equal(p, q) })
}

// TestStoreIndexMatchesOracle checks the per-source index of the packed
// store on an all-pairs DB (complete rows) and a sampled DB (partial rows
// plus one complete row), both again after a cache round trip.
func TestStoreIndexMatchesOracle(t *testing.T) {
	g := testGraph(t)
	n := g.NumNodes()
	cfg := ksp.Config{Alg: ksp.REDKSP, K: 4}
	// Per-pair reseeding makes the all-pairs sets the ones any build stores.
	ref := BuildAllPairs(g, cfg, 7, 2)
	oracleOf := func(pairs []Pair) map[uint64][]graph.Path {
		m := map[uint64][]graph.Path{}
		for _, p := range pairs {
			if p.Src != p.Dst {
				m[graph.PairKey(p.Src, p.Dst)] = ref.Paths(p.Src, p.Dst)
			}
		}
		return m
	}
	sample := SamplePairs(n, n*(n-1)/3, xrand.New(5))
	for d := 1; d < n; d++ {
		sample = append(sample, Pair{3, graph.NodeID(d)}) // row 3 complete
	}
	sample = append(sample, Pair{4, 4}) // a self pair is not stored
	dbs := map[string][]Pair{"all-pairs": AllOrderedPairs(n), "sampled": sample}
	for name, pairs := range dbs {
		built := Build(g, cfg, 7, pairs, 2)
		var buf bytes.Buffer
		if err := built.WriteCache(&buf, 1); err != nil {
			t.Fatal(err)
		}
		loaded, _, err := ReadCache(&buf, g)
		if err != nil {
			t.Fatal(err)
		}
		for kind, db := range map[string]*DB{"built": built, "cache-loaded": loaded} {
			t.Run(name+"/"+kind, func(t *testing.T) {
				checkAgainstOracle(t, db, oracleOf(pairs))
			})
		}
	}
}

// BenchmarkPathsLookup times Paths on the stored pairs of an all-pairs
// DB and of a DB holding a sample of half the pairs, both rEDKSP k=8 on
// RRG(36,24,16):
//
//	go test ./internal/paths -run '^$' -bench PathsLookup
func BenchmarkPathsLookup(b *testing.B) {
	g := jellyfish.MustNew(jellyfish.Small, xrand.New(1)).G
	n := g.NumNodes()
	cfg := ksp.Config{Alg: ksp.REDKSP, K: 8}
	for _, c := range []struct {
		name  string
		pairs []Pair
	}{
		{"all-pairs", AllOrderedPairs(n)},
		{"sampled", SamplePairs(n, n*(n-1)/2, xrand.New(2))},
	} {
		db := Build(g, cfg, 1, c.pairs, 0)
		b.Run(c.name, func(b *testing.B) {
			total := 0
			for i := 0; i < b.N; i++ {
				p := c.pairs[i%len(c.pairs)]
				total += len(db.Paths(p.Src, p.Dst))
			}
			if total == 0 && b.N > 0 {
				b.Fatalf("no paths over %d lookups", b.N)
			}
		})
	}
}
