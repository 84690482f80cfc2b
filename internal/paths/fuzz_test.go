package paths

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
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
// be rejected, and an accepted input must re-serialize to exactly its own
// bytes, so the format has one encoding of every DB it loads.
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
	// The selector name in the command line's lowercase spelling, with
	// the checksum recomputed: ReadCache must refuse it, since it would
	// re-serialize as "rEDKSP".
	alias := bytes.Clone(valid.Bytes())
	const nameOff = 4 + 4 + 8 + 1 // after magic, version, key and the name's length
	copy(alias[nameOff:], "redksp")
	h := fnv.New64a()
	h.Write(alias[:len(alias)-8])
	binary.LittleEndian.PutUint64(alias[len(alias)-8:], h.Sum64())
	f.Add(alias)
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
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("accepted input re-serialized to different bytes:\nin  %x\nout %x", data, out.Bytes())
		}
	})
}
