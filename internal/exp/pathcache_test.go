package exp

import (
	"os"
	"reflect"
	"testing"

	"repro/internal/jellyfish"
	"repro/internal/ksp"
	"repro/internal/routing"
)

// cacheDirEntries counts the cache files a run left behind.
func cacheDirEntries(t *testing.T, dir string) int {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return len(ents)
}

// TestFlitResultsIdenticalWithPathCache is the acceptance check for the
// cache wiring: the cycle-level experiment must produce identical
// results whether its path DBs are built in-process over the pairs it
// reads, built over all pairs on a cache miss, or streamed back in on a
// cache hit.
func TestFlitResultsIdenticalWithPathCache(t *testing.T) {
	cfg := FlitConfig{
		Params:  tiny,
		Pattern: "uniform",
		Rates:   []float64{0.3},
	}
	sc := Scale{TopoSamples: 1, PatternSamples: 1, K: 4, Seed: 3, Workers: 4}

	plain, err := FlitLatencyCurve(cfg, routing.KSPAdaptive(), sc)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	sc.PathCache = dir
	miss, err := FlitLatencyCurve(cfg, routing.KSPAdaptive(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if n := cacheDirEntries(t, dir); n != len(ksp.Algorithms) {
		t.Fatalf("cache dir has %d files after the miss run, want %d", n, len(ksp.Algorithms))
	}
	hit, err := FlitLatencyCurve(cfg, routing.KSPAdaptive(), sc)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(plain, miss) {
		t.Errorf("cache-miss run differs from uncached run:\n%+v\nvs\n%+v", miss, plain)
	}
	if !reflect.DeepEqual(plain, hit) {
		t.Errorf("cache-hit run differs from uncached run:\n%+v\nvs\n%+v", hit, plain)
	}
}

// TestAppResultsIdenticalWithPathCache is the same acceptance check for
// the application-level replay.
func TestAppResultsIdenticalWithPathCache(t *testing.T) {
	cfg := AppConfig{
		Params:       tiny,
		Mapping:      "linear",
		BytesPerRank: 100 * 1500,
		Mechanism:    routing.KSPAdaptive(),
	}
	sc := Scale{TopoSamples: 1, PatternSamples: 1, K: 4, Seed: 3, Workers: 4}

	plain, err := AppCommTimes(cfg, sc)
	if err != nil {
		t.Fatal(err)
	}
	sc.PathCache = t.TempDir()
	miss, err := AppCommTimes(cfg, sc)
	if err != nil {
		t.Fatal(err)
	}
	hit, err := AppCommTimes(cfg, sc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, miss) {
		t.Errorf("cache-miss run differs from uncached run")
	}
	if !reflect.DeepEqual(plain, hit) {
		t.Errorf("cache-hit run differs from uncached run")
	}
}

// TestWarmPathCacheServesPathProps checks the jftopo warming workflow:
// WarmPathCache populates the directory with the same derivation the
// experiments use, and a warmed PathProps run reproduces the uncached
// numbers exactly.
func TestWarmPathCacheServesPathProps(t *testing.T) {
	sc := tinyScale()
	plain, err := PathProps([]jellyfish.Params{tiny}, ksp.Algorithms, sc)
	if err != nil {
		t.Fatal(err)
	}

	sc.PathCache = t.TempDir()
	if err := WarmPathCache([]jellyfish.Params{tiny}, ksp.Algorithms, sc); err != nil {
		t.Fatal(err)
	}
	if n := cacheDirEntries(t, sc.PathCache); n != len(ksp.Algorithms) {
		t.Fatalf("warm left %d files, want %d", n, len(ksp.Algorithms))
	}
	cached, err := PathProps([]jellyfish.Params{tiny}, ksp.Algorithms, sc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, cached) {
		t.Errorf("warmed path-property tables differ from uncached:\n%+v\nvs\n%+v", cached, plain)
	}
}

func TestWarmPathCacheNeedsDir(t *testing.T) {
	if err := WarmPathCache([]jellyfish.Params{tiny}, ksp.Algorithms, tinyScale()); err == nil {
		t.Fatal("WarmPathCache without a directory did not error")
	}
}
