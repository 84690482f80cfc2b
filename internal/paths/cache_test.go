package paths

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"os"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/ksp"
)

// textBytes renders the DB through the line-oriented Write format — the
// canonical "same path sets" comparison used across the cache tests.
func textBytes(t *testing.T, db *DB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := db.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestCacheRoundTrip(t *testing.T) {
	g := testGraph(t)
	cfg := ksp.Config{Alg: ksp.REDKSP, K: 4}
	orig := BuildAllPairs(g, cfg, 77, 4)
	key := CacheKey(g, cfg, 77, AllOrderedPairs(g.NumNodes()))

	var buf bytes.Buffer
	if err := orig.WriteCache(&buf, key); err != nil {
		t.Fatal(err)
	}
	got, gotKey, err := ReadCache(bytes.NewReader(buf.Bytes()), g)
	if err != nil {
		t.Fatal(err)
	}
	if gotKey != key {
		t.Fatalf("key = %016x, want %016x", gotKey, key)
	}
	if got.NumPairs() != orig.NumPairs() {
		t.Fatalf("pairs = %d, want %d", got.NumPairs(), orig.NumPairs())
	}
	if got.Config() != orig.Config() {
		t.Fatalf("config = %+v, want %+v", got.Config(), orig.Config())
	}
	if got.Seed() != orig.Seed() {
		t.Fatalf("seed = %d, want %d", got.Seed(), orig.Seed())
	}
	if got.Fallbacks() != orig.Fallbacks() {
		t.Fatalf("fallbacks = %d, want %d", got.Fallbacks(), orig.Fallbacks())
	}
	if !bytes.Equal(textBytes(t, got), textBytes(t, orig)) {
		t.Fatal("loaded DB's Write output differs from the original")
	}
}

func TestCacheBytesDeterministicAcrossWorkers(t *testing.T) {
	g := testGraph(t)
	cfg := ksp.Config{Alg: ksp.REDKSP, K: 4}
	var want []byte
	for _, workers := range []int{1, 2, 8} {
		db := BuildAllPairs(g, cfg, 42, workers)
		var buf bytes.Buffer
		if err := db.WriteCache(&buf, 123); err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = buf.Bytes()
			continue
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("workers=%d: cache bytes differ", workers)
		}
	}
}

func TestCacheRoundTripPreservesFallbacks(t *testing.T) {
	// The fallback count survives the binary round trip (the text format
	// does not carry it).
	b := graph.NewBuilder(5)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 3)
	b.AddEdge(3, 2)
	b.AddEdge(3, 4)
	b.AddEdge(4, 2)
	g := b.Graph()
	db := Build(g, ksp.Config{Alg: ksp.EDKSP, K: 3}, 1, []Pair{{0, 2}}, 1)
	if db.Fallbacks() != 1 {
		t.Fatalf("fallbacks = %d, want 1", db.Fallbacks())
	}
	var buf bytes.Buffer
	if err := db.WriteCache(&buf, 9); err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadCache(&buf, g)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fallbacks() != 1 {
		t.Fatalf("loaded fallbacks = %d, want 1", got.Fallbacks())
	}
}

func TestLoadOrBuildHitIsBitIdentical(t *testing.T) {
	g := testGraph(t)
	cfg := ksp.Config{Alg: ksp.REDKSP, K: 4}
	pairs := AllOrderedPairs(g.NumNodes())
	dir := t.TempDir()

	fresh, stats, err := LoadOrBuild(dir, g, cfg, 7, pairs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Hit {
		t.Fatal("first LoadOrBuild reported a hit on an empty directory")
	}
	if _, err := os.Stat(stats.File); err != nil {
		t.Fatalf("cache file not written: %v", err)
	}

	loaded, stats2, err := LoadOrBuild(dir, g, cfg, 7, pairs, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !stats2.Hit {
		t.Fatalf("second LoadOrBuild missed (load error: %v)", stats2.LoadErr)
	}
	if !bytes.Equal(textBytes(t, loaded), textBytes(t, fresh)) {
		t.Fatal("cache-hit DB's Write output differs from the fresh build")
	}
	// A cache hit re-serialized to the binary format is also byte-equal.
	key := CacheKey(g, cfg, 7, pairs)
	var a, b bytes.Buffer
	if err := fresh.WriteCache(&a, key); err != nil {
		t.Fatal(err)
	}
	if err := loaded.WriteCache(&b, key); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("cache-hit DB re-serializes differently")
	}
}

func TestLoadOrBuildEmptyDirIsBuild(t *testing.T) {
	g := testGraph(t)
	cfg := ksp.Config{Alg: ksp.KSP, K: 3}
	pairs := []Pair{{0, 1}, {4, 9}}
	db, stats, err := LoadOrBuild("", g, cfg, 3, pairs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Hit || stats.File != "" {
		t.Fatalf("stats = %+v, want zero", stats)
	}
	want := Build(g, cfg, 3, pairs, 1)
	if !bytes.Equal(textBytes(t, db), textBytes(t, want)) {
		t.Fatal("LoadOrBuild(\"\") differs from Build")
	}
}

func TestLoadOrBuildDifferentKeysDifferentFiles(t *testing.T) {
	g := testGraph(t)
	pairs := []Pair{{0, 1}, {2, 3}}
	dir := t.TempDir()
	for _, cfg := range []ksp.Config{
		{Alg: ksp.KSP, K: 2},
		{Alg: ksp.KSP, K: 3},
		{Alg: ksp.REDKSP, K: 2},
	} {
		if _, _, err := LoadOrBuild(dir, g, cfg, 1, pairs, 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := LoadOrBuild(dir, g, ksp.Config{Alg: ksp.KSP, K: 2}, 2, pairs, 1); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 4 {
		t.Fatalf("got %d cache files, want 4 (config and seed must key separately)", len(ents))
	}
}

func TestLoadOrBuildRecoversFromCorruptFile(t *testing.T) {
	g := testGraph(t)
	cfg := ksp.Config{Alg: ksp.RKSP, K: 3}
	pairs := AllOrderedPairs(12)
	dir := t.TempDir()
	fresh, stats, err := LoadOrBuild(dir, g, cfg, 5, pairs, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte in the middle of the file.
	raw, err := os.ReadFile(stats.File)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(stats.File, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	db, stats2, err := LoadOrBuild(dir, g, cfg, 5, pairs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if stats2.Hit {
		t.Fatal("corrupt cache file reported as a hit")
	}
	if stats2.LoadErr == nil {
		t.Fatal("corrupt cache file produced no load error")
	}
	if !bytes.Equal(textBytes(t, db), textBytes(t, fresh)) {
		t.Fatal("rebuild after corruption differs from the original build")
	}
	// The rebuild must have replaced the file with a loadable one.
	f, err := os.Open(stats2.File)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, _, err := ReadCache(f, g); err != nil {
		t.Fatalf("rewritten cache file does not load: %v", err)
	}
}

func TestReadCacheRejectsVersionSkew(t *testing.T) {
	g := testGraph(t)
	db := Build(g, ksp.Config{Alg: ksp.KSP, K: 2}, 1, []Pair{{0, 1}}, 1)
	var buf bytes.Buffer
	if err := db.WriteCache(&buf, 1); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[4] = 99 // version field follows the 4-byte magic
	_, _, err := ReadCache(bytes.NewReader(raw), g)
	if !errors.Is(err, ErrCacheVersion) {
		t.Fatalf("version-skewed file: err = %v, want ErrCacheVersion", err)
	}
	if err == nil || !strings.Contains(err.Error(), "version 99") {
		t.Fatalf("version error does not name the file's version: %v", err)
	}
}

// TestReadCacheRejectsRetiredHeaders feeds ReadCache three headers that
// WriteCache never writes: the retired LLSKR selector's name, a nonzero
// spread word, which only LLSKR wrote, and the lowercase alias "edksp",
// which ksp.ByName accepts on command lines but which would load and
// re-serialize as "EDKSP". Each file's checksum is recomputed, so only
// the header checks can refuse it.
func TestReadCacheRejectsRetiredHeaders(t *testing.T) {
	g := testGraph(t)
	db := Build(g, ksp.Config{Alg: ksp.EDKSP, K: 2}, 1, []Pair{{0, 1}}, 1)
	var buf bytes.Buffer
	if err := db.WriteCache(&buf, 1); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	// The name follows magic, version, key and its length byte; k and
	// then the spread word follow the name.
	const nameOff = 4 + 4 + 8 + 1
	const spreadOff = nameOff + len("EDKSP") + 4
	if got := string(valid[nameOff : nameOff+5]); got != "EDKSP" {
		t.Fatalf("selector name at offset %d is %q", nameOff, got)
	}
	resum := func(raw []byte) []byte {
		h := fnv.New64a()
		h.Write(raw[:len(raw)-8])
		binary.LittleEndian.PutUint64(raw[len(raw)-8:], h.Sum64())
		return raw
	}
	llskr := bytes.Clone(valid)
	copy(llskr[nameOff:], "LLSKR")
	spread := bytes.Clone(valid)
	binary.LittleEndian.PutUint32(spread[spreadOff:], 1)
	alias := bytes.Clone(valid)
	copy(alias[nameOff:], "edksp")
	for _, tc := range []struct {
		name string
		raw  []byte
		want string
	}{
		{"LLSKR name", resum(llskr), `unknown algorithm "LLSKR"`},
		{"nonzero spread", resum(spread), "spread and min words must be 0"},
		{"lowercase alias", resum(alias), `selector name "edksp" is not canonical`},
	} {
		_, _, err := ReadCache(bytes.NewReader(tc.raw), g)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

func TestReadCacheRejectsChecksumFlip(t *testing.T) {
	g := testGraph(t)
	db := Build(g, ksp.Config{Alg: ksp.KSP, K: 2}, 1, []Pair{{0, 1}, {0, 2}}, 1)
	var buf bytes.Buffer
	if err := db.WriteCache(&buf, 1); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)-1] ^= 1 // footer checksum byte
	if _, _, err := ReadCache(bytes.NewReader(raw), g); err == nil ||
		!strings.Contains(err.Error(), "checksum") {
		t.Fatalf("flipped checksum: err = %v, want checksum mismatch", err)
	}
}

func TestReadCacheRejectsTruncation(t *testing.T) {
	g := testGraph(t)
	db := BuildAllPairs(g, ksp.Config{Alg: ksp.REDKSP, K: 3}, 2, 1)
	var buf bytes.Buffer
	if err := db.WriteCache(&buf, 1); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, cut := range []int{0, 3, 4, 7, 8, 20, 40, len(raw) / 2, len(raw) - 1} {
		if _, _, err := ReadCache(bytes.NewReader(raw[:cut]), g); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	// Trailing garbage after a valid stream must also be rejected.
	if _, _, err := ReadCache(bytes.NewReader(append(raw, 0)), g); err == nil ||
		!strings.Contains(err.Error(), "trailing") {
		t.Errorf("trailing byte: err = %v, want trailing-data error", err)
	}
}

func TestReadCacheRejectsWrongGraph(t *testing.T) {
	g := testGraph(t)
	db := BuildAllPairs(g, ksp.Config{Alg: ksp.KSP, K: 2}, 1, 1)
	var buf bytes.Buffer
	if err := db.WriteCache(&buf, 1); err != nil {
		t.Fatal(err)
	}
	// A path graph 0-1-2-...: almost none of the RRG's paths are valid.
	b := graph.NewBuilder(g.NumNodes())
	for i := 0; i+1 < g.NumNodes(); i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	if _, _, err := ReadCache(bytes.NewReader(buf.Bytes()), b.Graph()); err == nil {
		t.Fatal("cache for a different graph accepted")
	}
}

func TestReadCacheEmptyDB(t *testing.T) {
	g := testGraph(t)
	empty := Build(g, ksp.Config{Alg: ksp.KSP, K: 2}, 3, nil, 1)
	var buf bytes.Buffer
	if err := empty.WriteCache(&buf, 5); err != nil {
		t.Fatal(err)
	}
	got, key, err := ReadCache(&buf, g)
	if err != nil {
		t.Fatal(err)
	}
	if key != 5 || got.NumPairs() != 0 {
		t.Fatalf("key = %d, pairs = %d", key, got.NumPairs())
	}
}

func TestCacheKeySensitivity(t *testing.T) {
	g := testGraph(t)
	base := CacheKey(g, ksp.Config{Alg: ksp.KSP, K: 4}, 1, []Pair{{0, 1}})
	variants := []uint64{
		CacheKey(g, ksp.Config{Alg: ksp.RKSP, K: 4}, 1, []Pair{{0, 1}}),
		CacheKey(g, ksp.Config{Alg: ksp.KSP, K: 5}, 1, []Pair{{0, 1}}),
		CacheKey(g, ksp.Config{Alg: ksp.KSP, K: 4}, 2, []Pair{{0, 1}}),
		CacheKey(g, ksp.Config{Alg: ksp.KSP, K: 4}, 1, []Pair{{0, 2}}),
		CacheKey(g, ksp.Config{Alg: ksp.KSP, K: 4, DisableEDFallback: true}, 1, []Pair{{0, 1}}),
	}
	for i, v := range variants {
		if v == base {
			t.Errorf("variant %d collides with the base key", i)
		}
	}
	// Pair order and duplicates do not change the key (the set does).
	a := CacheKey(g, ksp.Config{Alg: ksp.KSP, K: 4}, 1, []Pair{{0, 1}, {2, 3}})
	b := CacheKey(g, ksp.Config{Alg: ksp.KSP, K: 4}, 1, []Pair{{2, 3}, {0, 1}, {2, 3}})
	if a != b {
		t.Error("pair order/duplicates changed the cache key")
	}
	// A different topology instance changes the key.
	bld := graph.NewBuilder(g.NumNodes())
	for i := 0; i+1 < g.NumNodes(); i++ {
		bld.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	if CacheKey(bld.Graph(), ksp.Config{Alg: ksp.KSP, K: 4}, 1, []Pair{{0, 1}}) == base {
		t.Error("different graph produced the same cache key")
	}
}

func TestLoadedDBLazyFillMatchesFresh(t *testing.T) {
	// A cache-loaded DB holds exactly what a fresh build over the same
	// pairs holds, and answers an absent pair with ErrNotStored.
	g := testGraph(t)
	cfg := ksp.Config{Alg: ksp.RKSP, K: 3}
	pairs := []Pair{{0, 1}, {2, 3}, {5, 9}}
	var buf bytes.Buffer
	if err := Build(g, cfg, 9, pairs, 1).WriteCache(&buf, 4); err != nil {
		t.Fatal(err)
	}
	loaded, _, err := ReadCache(&buf, g)
	if err != nil {
		t.Fatal(err)
	}
	fresh := Build(g, cfg, 9, pairs, 2)
	if !bytes.Equal(textBytes(t, loaded), textBytes(t, fresh)) {
		t.Fatal("cache-loaded DB differs from a fresh build")
	}
	a, b := loaded.Paths(5, 9), fresh.Paths(5, 9)
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("Paths(5, 9): %d vs %d paths", len(a), len(b))
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatalf("path %d differs after cache load", i)
		}
	}
	if loaded.NumPairs() != 3 {
		t.Fatalf("NumPairs = %d, want 3", loaded.NumPairs())
	}
	if _, err := loaded.Lookup(9, 5); !errors.Is(err, ErrNotStored) {
		t.Fatalf("Lookup(9, 5) = %v, want %v", err, ErrNotStored)
	}
}
