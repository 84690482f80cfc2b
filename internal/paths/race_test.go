package paths

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/ksp"
)

// TestLazyFillRaceIdenticalPathSets has goroutines read one DB built over
// a subset of the pairs all at once, and requires every reader to see
// the path sets the all-pairs build holds for those pairs. Run under
// -race via `make check`: reads take no lock, so the test is what pins
// that they never write.
func TestLazyFillRaceIdenticalPathSets(t *testing.T) {
	g := testGraph(t)
	cfg := ksp.Config{Alg: ksp.REDKSP, K: 3}
	const seed = 31
	want := BuildAllPairs(g, cfg, seed, 2)

	// A focused pair list keeps every goroutine reading the same pairs.
	var pairs []Pair
	for s := graph.NodeID(0); s < 8; s++ {
		for d := graph.NodeID(0); d < 8; d++ {
			if s != d {
				pairs = append(pairs, Pair{s, d})
			}
		}
	}

	db := Build(g, cfg, seed, pairs, 2)
	const racers = 16
	results := make([][][]graph.Path, racers)
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(racers)
	for r := 0; r < racers; r++ {
		go func() {
			defer done.Done()
			start.Wait() // maximize simultaneous reads
			out := make([][]graph.Path, len(pairs))
			for i, pr := range pairs {
				out[i] = db.Paths(pr.Src, pr.Dst)
			}
			results[r] = out
		}()
	}
	start.Done()
	done.Wait()

	for r, out := range results {
		for i, pr := range pairs {
			ref := want.Paths(pr.Src, pr.Dst)
			got := out[i]
			if len(got) != len(ref) {
				t.Fatalf("racer %d pair %d->%d: %d paths, want %d",
					r, pr.Src, pr.Dst, len(got), len(ref))
			}
			for pi := range ref {
				if !got[pi].Equal(ref[pi]) {
					t.Fatalf("racer %d pair %d->%d path %d: %v, want %v",
						r, pr.Src, pr.Dst, pi, got[pi], ref[pi])
				}
			}
		}
	}
	// The subset's fallbacks are a share of the all-pairs build's.
	if db.Fallbacks() > want.Fallbacks() {
		t.Fatalf("subset fallbacks %d exceed all-pairs %d", db.Fallbacks(), want.Fallbacks())
	}
}

// TestConcurrentReadsOnCacheLoadedDB races Paths and Lookup readers on
// one cache-loaded DB, the access mix flitsim workers and jfserve
// connections produce when fed one. Run under -race.
func TestConcurrentReadsOnCacheLoadedDB(t *testing.T) {
	g := testGraph(t)
	cfg := ksp.Config{Alg: ksp.RKSP, K: 3}
	var buf bytes.Buffer
	if err := BuildAllPairs(g, cfg, 5, 2).WriteCache(&buf, 1); err != nil {
		t.Fatal(err)
	}
	packed, _, err := ReadCache(&buf, g)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := graph.NodeID(0); s < 24; s++ {
				for d := graph.NodeID(0); d < 24; d++ {
					if s == d {
						continue
					}
					ps := packed.Paths(s, d)
					if len(ps) == 0 {
						t.Error("empty path set")
						return
					}
					if looked, err := packed.Lookup(s, d); err != nil || &looked[0] != &ps[0] {
						t.Errorf("Lookup(%d, %d) = %v, %v; want the Paths set", s, d, looked, err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if packed.NumPairs() != 24*23 {
		t.Fatalf("NumPairs = %d", packed.NumPairs())
	}
}
