package paths

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/jellyfish"
	"repro/internal/ksp"
	"repro/internal/xrand"
)

// fuzzGraph is the fixed small RRG every fuzz execution parses against.
// Built once: the fuzz engine calls the target millions of times.
var fuzzGraphOnce = sync.OnceValue(func() *graph.Graph {
	topo, err := jellyfish.New(jellyfish.Params{N: 12, X: 8, Y: 5}, xrand.New(3))
	if err != nil {
		panic(err)
	}
	return topo.G
})

// fuzzSeedDB is a small deterministic DB used to derive valid seed
// inputs for the fuzz target.
func fuzzSeedDB() *DB {
	g := fuzzGraphOnce()
	return Build(g, ksp.Config{Alg: ksp.REDKSP, K: 3}, 17,
		[]Pair{{0, 1}, {0, 5}, {3, 7}, {11, 2}}, 1)
}

// FuzzCacheRead hammers the binary cache loader: whatever the bytes,
// ReadCache must either load a DB or return an error — never panic, and
// never allocate proportionally to a declared (rather than actual) size.
// Corrupted, truncated, version-skewed and checksum-flipped inputs must
// be rejected, and accepted inputs must re-serialize byte-identically.
func FuzzCacheRead(f *testing.F) {
	db := fuzzSeedDB()
	g := fuzzGraphOnce()
	key := CacheKey(g, db.Config(), db.Seed(), []Pair{{0, 1}, {0, 5}, {3, 7}, {11, 2}})
	var valid bytes.Buffer
	if err := db.WriteCache(&valid, key); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	skew := bytes.Clone(valid.Bytes())
	skew[4] = 2 // version field
	f.Add(skew)
	sumFlip := bytes.Clone(valid.Bytes())
	sumFlip[len(sumFlip)-1] ^= 0x80
	f.Add(sumFlip)
	f.Add(valid.Bytes()[:20])
	f.Add([]byte("JFPC"))
	f.Add([]byte("not a cache at all"))

	f.Fuzz(func(t *testing.T, data []byte) {
		g := fuzzGraphOnce()
		got, gotKey, err := ReadCache(bytes.NewReader(data), g)
		if err != nil {
			return
		}
		var out bytes.Buffer
		if werr := got.WriteCache(&out, gotKey); werr != nil {
			t.Fatalf("WriteCache after successful ReadCache failed: %v", werr)
		}
		again, againKey, rerr := ReadCache(bytes.NewReader(out.Bytes()), g)
		if rerr != nil {
			t.Fatalf("re-ReadCache of WriteCache output failed: %v", rerr)
		}
		if againKey != gotKey {
			t.Fatalf("key changed across round trip: %016x vs %016x", againKey, gotKey)
		}
		var out2 bytes.Buffer
		if werr := again.WriteCache(&out2, againKey); werr != nil {
			t.Fatal(werr)
		}
		if !bytes.Equal(out.Bytes(), out2.Bytes()) {
			t.Fatal("WriteCache/ReadCache round trip is not a fixed point")
		}
	})
}
