package paths

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/graph"
	"repro/internal/jellyfish"
	"repro/internal/ksp"
	"repro/internal/xrand"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite the committed path-archive fixtures under testdata/")

// goldenGraph and goldenDB pin the exact inputs the committed fixtures
// were generated from. Changing the selectors, the RRG construction or
// the serializers in a way that shifts bytes will fail the golden tests;
// regenerate deliberately with `go test -run Golden -update-golden` and
// bump the cache format version if the on-disk layout changed.
func goldenGraph(t *testing.T) *graph.Graph {
	t.Helper()
	topo, err := jellyfish.New(jellyfish.Params{N: 12, X: 8, Y: 5}, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	return topo.G
}

var goldenPairs = []Pair{{0, 1}, {0, 5}, {3, 7}, {11, 2}, {9, 4}}

func goldenDB(t *testing.T, g *graph.Graph) *DB {
	t.Helper()
	return Build(g, ksp.Config{Alg: ksp.REDKSP, K: 3}, 17, goldenPairs, 1)
}

const (
	goldenTextFixture  = "testdata/pathdb_v1.txt"
	goldenCacheFixture = "testdata/pathdb_v1.jfpc"
)

func goldenKey(g *graph.Graph, db *DB) uint64 {
	return CacheKey(g, db.Config(), db.Seed(), goldenPairs)
}

func TestGoldenFixturesUpToDate(t *testing.T) {
	g := goldenGraph(t)
	db := goldenDB(t, g)
	var text, bin bytes.Buffer
	if err := db.Write(&text); err != nil {
		t.Fatal(err)
	}
	if err := db.WriteCache(&bin, goldenKey(g, db)); err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenTextFixture), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenTextFixture, text.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenCacheFixture, bin.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Log("rewrote golden fixtures")
		return
	}
	wantText, err := os.ReadFile(goldenTextFixture)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to generate)", err)
	}
	if !bytes.Equal(text.Bytes(), wantText) {
		t.Error("text dump bytes drifted from the committed fixture")
	}
	wantBin, err := os.ReadFile(goldenCacheFixture)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to generate)", err)
	}
	if !bytes.Equal(bin.Bytes(), wantBin) {
		t.Error("cache bytes drifted from the committed fixture")
	}
}

// TestGoldenCacheFixtureLoads is the cross-version contract for the
// binary cache: the committed v1 file must load (or, for a future
// incompatible reader, be rejected with ErrCacheVersion — never
// misparsed), reproduce the freshly built DB bit-identically, and agree
// with the recomputed cache key.
func TestGoldenCacheFixtureLoads(t *testing.T) {
	g := goldenGraph(t)
	raw, err := os.ReadFile(goldenCacheFixture)
	if err != nil {
		t.Fatal(err)
	}
	db, key, err := ReadCache(bytes.NewReader(raw), g)
	if err != nil {
		if errors.Is(err, ErrCacheVersion) {
			t.Skip("fixture is from an older format version; regenerate with -update-golden")
		}
		t.Fatalf("committed cache fixture no longer loads: %v", err)
	}
	fresh := goldenDB(t, g)
	if want := goldenKey(g, fresh); key != want {
		t.Fatalf("fixture key %016x, recomputed %016x", key, want)
	}
	if !bytes.Equal(textBytes(t, db), textBytes(t, fresh)) {
		t.Fatal("cache-loaded DB differs from a fresh build")
	}
	var out bytes.Buffer
	if err := db.WriteCache(&out, key); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), raw) {
		t.Fatal("cache hit does not re-serialize bit-identically")
	}
}

// TestGoldenCacheFixtureVersionSkew rewrites the fixture's version field
// and asserts the reader rejects it with the dedicated sentinel error —
// the behavior future format bumps rely on.
func TestGoldenCacheFixtureVersionSkew(t *testing.T) {
	g := goldenGraph(t)
	raw, err := os.ReadFile(goldenCacheFixture)
	if err != nil {
		t.Fatal(err)
	}
	skew := bytes.Clone(raw)
	skew[4]++ // little-endian version word follows the magic
	if _, _, err := ReadCache(bytes.NewReader(skew), g); !errors.Is(err, ErrCacheVersion) {
		t.Fatalf("version-skewed fixture: err = %v, want ErrCacheVersion", err)
	}
}
