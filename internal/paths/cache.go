package paths

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"repro/internal/graph"
	"repro/internal/ksp"
	"repro/internal/par"
)

// The on-disk path-cache format, version 1 (see docs/PATHS.md). All
// integers are little-endian:
//
//	magic    "JFPC"
//	version  uint32 (= 1)
//	key      uint64  cache key (CacheKey of config+seed+topology+pairs)
//	alg      uint8 length + bytes (selector name, as Algorithm.String spells it)
//	k        uint32
//	spread   uint32  always 0 (reserved)
//	min      uint32  always 0 (reserved)
//	flags    uint8   bit 0: DisableEDFallback
//	seed     uint64
//	fallback uint64  pairs that used the edge-disjoint top-up fallback
//	numPairs uint64
//	numPaths uint64
//	arenaLen uint64  total node count over all paths
//	pairs    numPairs × (src uint32, dst uint32, npaths uint32),
//	         strictly ascending (src, dst)
//	lens     numPaths × uint32 (nodes per path, pair-major order)
//	arena    arenaLen × uint32 (node ids, concatenated paths)
//	checksum uint64  FNV-1a 64 over every preceding byte
//
// Writes are sorted and single-streamed, so the bytes are identical no
// matter how many workers built the DB. Loads stream through bufio with
// allocation growth tied to the bytes actually read, so a truncated or
// hostile header cannot cause a large allocation, and every path is
// re-validated against the graph before the DB is returned.
const (
	cacheMagic   = "JFPC"
	cacheVersion = 1

	// maxAlgNameLen bounds the selector-name field.
	maxAlgNameLen = 64
	// maxPathsPerPair bounds the k a cache file may declare. No selector
	// produces more than k paths per pair and practical k is a few
	// dozen; the bound keeps corrupted or hostile files from making the
	// loader allocate unbounded memory from a tiny input.
	maxPathsPerPair = 1 << 16
	// growChunk caps how far ahead of the consumed input the loader's
	// slices may be grown.
	growChunk = 1 << 16
)

// hashWriter tees every written byte into an FNV-1a 64 running checksum.
type hashWriter struct {
	w io.Writer
	h hash.Hash64
}

func (hw *hashWriter) Write(p []byte) (int, error) {
	hw.h.Write(p)
	return hw.w.Write(p)
}

// leWriter encodes little-endian integers through a scratch buffer.
type leWriter struct {
	w   io.Writer
	buf [8]byte
	err error
}

func (e *leWriter) u8(v uint8) {
	if e.err != nil {
		return
	}
	e.buf[0] = v
	_, e.err = e.w.Write(e.buf[:1])
}

func (e *leWriter) u32(v uint32) {
	if e.err != nil {
		return
	}
	binary.LittleEndian.PutUint32(e.buf[:4], v)
	_, e.err = e.w.Write(e.buf[:4])
}

func (e *leWriter) u64(v uint64) {
	if e.err != nil {
		return
	}
	binary.LittleEndian.PutUint64(e.buf[:8], v)
	_, e.err = e.w.Write(e.buf[:8])
}

func (e *leWriter) bytes(p []byte) {
	if e.err != nil {
		return
	}
	_, e.err = e.w.Write(p)
}

// leReader decodes little-endian integers, teeing every consumed byte
// into the running checksum until hashing is stopped for the footer.
type leReader struct {
	r       *bufio.Reader
	h       hash.Hash64
	hashing bool
	buf     [8]byte
	err     error
}

func (d *leReader) read(n int) []byte {
	if d.err != nil {
		return nil
	}
	if _, err := io.ReadFull(d.r, d.buf[:n]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			err = fmt.Errorf("paths: cache truncated")
		}
		d.err = err
		return nil
	}
	if d.hashing {
		d.h.Write(d.buf[:n])
	}
	return d.buf[:n]
}

func (d *leReader) u8() uint8 {
	b := d.read(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *leReader) u32() uint32 {
	b := d.read(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *leReader) u64() uint64 {
	b := d.read(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *leReader) bytes(n int) []byte {
	if d.err != nil {
		return nil
	}
	p := make([]byte, n)
	if _, err := io.ReadFull(d.r, p); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			err = fmt.Errorf("paths: cache truncated")
		}
		d.err = err
		return nil
	}
	if d.hashing {
		d.h.Write(p)
	}
	return p
}

// CacheKey derives the 64-bit key identifying one cached database: the
// cache format version, the selector configuration in canonical form,
// the build seed, the exact topology (graph fingerprint) and the exact
// pair set (sorted, deduplicated). Any change to any input yields a new
// key, which is the cache's only invalidation rule — stale entries are
// simply never looked up again.
func CacheKey(g *graph.Graph, cfg ksp.Config, seed uint64, pairs []Pair) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "jf-pathdb-v%d|%s|seed=%d|graph=%016x|pairs=",
		cacheVersion, cfg.Canonical(), seed, g.Fingerprint())
	keys := make([]uint64, 0, len(pairs))
	for _, p := range pairs {
		keys = append(keys, graph.PairKey(p.Src, p.Dst))
	}
	slices.Sort(keys)
	keys = slices.Compact(keys)
	var buf [8]byte
	for _, k := range keys {
		binary.LittleEndian.PutUint64(buf[:], k)
		h.Write(buf[:])
	}
	return h.Sum64()
}

// CacheFileName returns the file name a cached database is stored under
// inside a cache directory. The format version is part of the name, so a
// reader never even opens an incompatible file.
func CacheFileName(key uint64) string {
	return fmt.Sprintf("pathdb-v%d-%016x.jfpc", cacheVersion, key)
}

// WriteCache serializes the DB's path sets in the binary cache format
// under the given cache key. Pairs are emitted in ascending (src, dst)
// order — the store's own order, whose node arena holds the paths
// back to back in that order — and the stream is checksummed, so output
// bytes are identical for any two DBs holding the same path sets:
// builds at any worker count, or a prior cache load.
func (db *DB) WriteCache(w io.Writer, key uint64) error {
	st := db.st
	bw := bufio.NewWriterSize(w, 1<<16)
	hw := &hashWriter{w: bw, h: fnv.New64a()}
	e := &leWriter{w: hw}

	e.bytes([]byte(cacheMagic))
	e.u32(cacheVersion)
	e.u64(key)
	alg := db.cfg.Alg.String()
	e.u8(uint8(len(alg)))
	e.bytes([]byte(alg))
	e.u32(uint32(db.cfg.K))
	e.u32(0) // spread
	e.u32(0) // min
	var flags uint8
	if db.cfg.DisableEDFallback {
		flags |= 1
	}
	e.u8(flags)
	e.u64(db.seed)
	e.u64(uint64(st.fallbacks))
	e.u64(uint64(len(st.keys)))
	e.u64(uint64(len(st.heads)))
	e.u64(uint64(len(st.arena)))
	for i, k := range st.keys {
		e.u32(uint32(k >> 32))
		e.u32(uint32(k))
		e.u32(uint32(st.pairOff[i+1] - st.pairOff[i]))
	}
	for _, p := range st.heads {
		e.u32(uint32(len(p)))
	}
	for _, u := range st.arena {
		e.u32(uint32(u))
	}
	if e.err != nil {
		return e.err
	}
	// The checksum covers everything before it and is itself unhashed.
	sum := hw.h.Sum64()
	e.w = bw
	e.u64(sum)
	if e.err != nil {
		return e.err
	}
	return bw.Flush()
}

// ErrCacheVersion marks a cache file written by a different format
// version; errors.Is(err, ErrCacheVersion) distinguishes version skew
// from corruption.
var ErrCacheVersion = errors.New("paths: unsupported cache version")

// ReadCache loads a database written by WriteCache onto graph g and
// returns it with the cache key stored in the file. Every declared count
// is bounds-checked against the graph before use, slice growth is tied
// to the bytes actually consumed, every path is re-validated against the
// graph (edges, endpoints, monotone pair order), and the trailing
// checksum must match: corrupted, truncated, version-skewed or hostile
// input returns an error — never a panic or an outsized allocation.
func ReadCache(r io.Reader, g *graph.Graph) (*DB, uint64, error) {
	d := &leReader{r: bufio.NewReaderSize(r, 1<<16), h: fnv.New64a(), hashing: true}
	n := g.NumNodes()

	magic := make([]byte, 4)
	if _, err := io.ReadFull(d.r, magic); err != nil {
		return nil, 0, fmt.Errorf("paths: cache too short for magic")
	}
	d.h.Write(magic)
	if string(magic) != cacheMagic {
		return nil, 0, fmt.Errorf("paths: not a path-cache file (magic %q)", magic)
	}
	version := d.u32()
	if d.err == nil && version != cacheVersion {
		return nil, 0, fmt.Errorf("%w: file has version %d, this reader supports version %d",
			ErrCacheVersion, version, cacheVersion)
	}
	key := d.u64()
	algLen := int(d.u8())
	if d.err == nil && algLen > maxAlgNameLen {
		return nil, 0, fmt.Errorf("paths: cache selector name length %d out of range", algLen)
	}
	algName := d.bytes(algLen)
	if d.err != nil {
		return nil, 0, d.err
	}
	alg, err := ksp.ByName(string(algName))
	if err != nil {
		return nil, 0, fmt.Errorf("paths: cache: %v", err)
	}
	// ByName also takes the command line's lowercase aliases, which
	// WriteCache never writes: a file naming one would not re-serialize
	// to its own bytes.
	if alg.String() != string(algName) {
		return nil, 0, fmt.Errorf("paths: cache selector name %q is not canonical; WriteCache writes %q", algName, alg)
	}
	k := int(d.u32())
	spread := d.u32()
	minPaths := d.u32()
	flags := d.u8()
	seed := d.u64()
	fallbacks := d.u64()
	numPairs := d.u64()
	numPaths := d.u64()
	arenaLen := d.u64()
	if d.err != nil {
		return nil, 0, d.err
	}
	if k < 1 || k > maxPathsPerPair {
		return nil, 0, fmt.Errorf("paths: cache k %d out of range [1, %d]", k, maxPathsPerPair)
	}
	if spread != 0 || minPaths != 0 {
		return nil, 0, fmt.Errorf("paths: cache spread and min words must be 0, got %d and %d", spread, minPaths)
	}
	if flags > 1 {
		return nil, 0, fmt.Errorf("paths: cache has unknown flag bits %#x", flags)
	}
	maxPairs := uint64(n) * uint64(n-1)
	if numPairs > maxPairs {
		return nil, 0, fmt.Errorf("paths: cache declares %d pairs, graph allows at most %d", numPairs, maxPairs)
	}
	if numPaths > numPairs*uint64(k) || numPaths >= 1<<31 {
		return nil, 0, fmt.Errorf("paths: cache declares %d paths for %d pairs at k=%d", numPaths, numPairs, k)
	}
	if arenaLen > numPaths*uint64(n) {
		return nil, 0, fmt.Errorf("paths: cache declares %d arena nodes for %d paths", arenaLen, numPaths)
	}
	if fallbacks > numPairs {
		return nil, 0, fmt.Errorf("paths: cache declares %d fallbacks over %d pairs", fallbacks, numPairs)
	}

	cfg := ksp.Config{Alg: alg, K: k, DisableEDFallback: flags&1 != 0}

	// Pairs section. Slices grow with the input rather than trusting the
	// declared totals, so truncation costs at most one growth chunk.
	st := &store{
		keys:      make([]uint64, 0, min(numPairs, growChunk)),
		fallbacks: int(fallbacks),
	}
	counts := make([]uint32, 0, min(numPairs, growChunk))
	var prevKey uint64
	var sumPaths uint64
	for i := uint64(0); i < numPairs; i++ {
		src := d.u32()
		dst := d.u32()
		np := d.u32()
		if d.err != nil {
			return nil, 0, d.err
		}
		if src >= uint32(n) || dst >= uint32(n) || src == dst {
			return nil, 0, fmt.Errorf("paths: cache pair %d->%d out of range", src, dst)
		}
		if np > uint32(k) {
			return nil, 0, fmt.Errorf("paths: cache pair %d->%d declares %d paths, k is %d", src, dst, np, k)
		}
		pk := graph.PairKey(graph.NodeID(src), graph.NodeID(dst))
		if i > 0 && pk <= prevKey {
			return nil, 0, fmt.Errorf("paths: cache pairs not in ascending order at %d->%d", src, dst)
		}
		prevKey = pk
		st.keys = append(st.keys, pk)
		counts = append(counts, np)
		sumPaths += uint64(np)
	}
	if sumPaths != numPaths {
		return nil, 0, fmt.Errorf("paths: cache pair counts sum to %d, header said %d", sumPaths, numPaths)
	}

	// Path-length section.
	lens := make([]uint32, 0, min(numPaths, growChunk))
	var sumNodes uint64
	for i := uint64(0); i < numPaths; i++ {
		l := d.u32()
		if d.err != nil {
			return nil, 0, d.err
		}
		if l < 2 || l > uint32(n) {
			return nil, 0, fmt.Errorf("paths: cache path length %d out of range [2, %d]", l, n)
		}
		lens = append(lens, l)
		sumNodes += uint64(l)
	}
	if sumNodes != arenaLen {
		return nil, 0, fmt.Errorf("paths: cache path lengths sum to %d, header said %d", sumNodes, arenaLen)
	}

	// Arena section, decoded in bulk chunks.
	st.arena = make([]graph.NodeID, 0, min(arenaLen, growChunk))
	chunk := make([]byte, 4*growChunk)
	for remaining := arenaLen; remaining > 0; {
		want := min(remaining, growChunk)
		buf := chunk[:4*want]
		if _, err := io.ReadFull(d.r, buf); err != nil {
			return nil, 0, fmt.Errorf("paths: cache truncated")
		}
		d.h.Write(buf)
		for i := uint64(0); i < want; i++ {
			v := binary.LittleEndian.Uint32(buf[4*i:])
			if v >= uint32(n) {
				return nil, 0, fmt.Errorf("paths: cache node id %d out of range", v)
			}
			st.arena = append(st.arena, graph.NodeID(v))
		}
		remaining -= want
	}

	// Footer checksum (not part of the hashed stream), then EOF.
	wantSum := d.h.Sum64()
	d.hashing = false
	gotSum := d.u64()
	if d.err != nil {
		return nil, 0, d.err
	}
	if gotSum != wantSum {
		return nil, 0, fmt.Errorf("paths: cache checksum mismatch (file %016x, computed %016x)", gotSum, wantSum)
	}
	if _, err := d.r.ReadByte(); err != io.EOF {
		return nil, 0, fmt.Errorf("paths: trailing data after cache checksum")
	}

	// Assemble the CSR index and validate every path against the graph.
	st.pairOff = make([]int32, len(st.keys)+1)
	st.heads = make([]graph.Path, numPaths)
	st.srcOff = sourceOffsets(st.keys, n)
	pathIdx := 0
	nodeOff := 0
	for i, pk := range st.keys {
		st.pairOff[i] = int32(pathIdx)
		src := graph.NodeID(pk >> 32)
		dst := graph.NodeID(uint32(pk))
		for c := uint32(0); c < counts[i]; c++ {
			l := int(lens[pathIdx])
			p := graph.Path(st.arena[nodeOff : nodeOff+l : nodeOff+l])
			st.heads[pathIdx] = p
			if p[0] != src || p[l-1] != dst {
				return nil, 0, fmt.Errorf("paths: cache path endpoints do not match pair %d->%d", src, dst)
			}
			pathIdx++
			nodeOff += l
		}
	}
	st.pairOff[len(st.keys)] = int32(pathIdx)
	if verr := validateStorePaths(st, g); verr != nil {
		return nil, 0, verr
	}

	return &DB{g: g, cfg: cfg, seed: seed, st: st}, key, nil
}

// validateStorePaths checks that every packed path only traverses edges
// of g, sharded across workers — on an all-pairs medium-topology load
// this is the dominant cost of a cache hit.
func validateStorePaths(st *store, g *graph.Graph) error {
	var mu sync.Mutex
	var bad error
	par.ForShards(len(st.heads), 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			p := st.heads[i]
			for j := 0; j+1 < len(p); j++ {
				if !g.HasEdge(p[j], p[j+1]) {
					mu.Lock()
					bad = fmt.Errorf("paths: cache path uses non-edge %d-%d", p[j], p[j+1])
					mu.Unlock()
					return
				}
			}
		}
	})
	return bad
}

// CacheStats reports what LoadOrBuild did.
type CacheStats struct {
	// Hit is true when the DB was loaded from the cache file.
	Hit bool
	// File is the cache file path consulted ("" when no directory was
	// given).
	File string
	// LoadErr records why an existing cache file was discarded and
	// rebuilt (nil on a clean hit or a plain miss).
	LoadErr error
}

// LoadOrBuild returns the path DB for (g, cfg, seed, pairs), loading it
// from the versioned cache under dir when a valid entry exists and
// building it (shard-parallel) and writing the entry back otherwise. An
// empty dir disables caching and is exactly Build. A corrupt, truncated
// or key-mismatched cache file is discarded and rebuilt, never trusted;
// the write is atomic (temp file + rename), so concurrent processes can
// share a cache directory.
func LoadOrBuild(dir string, g *graph.Graph, cfg ksp.Config, seed uint64, pairs []Pair, workers int) (*DB, CacheStats, error) {
	if dir == "" {
		return Build(g, cfg, seed, pairs, workers), CacheStats{}, nil
	}
	key := CacheKey(g, cfg, seed, pairs)
	file := filepath.Join(dir, CacheFileName(key))
	stats := CacheStats{File: file}
	if f, err := os.Open(file); err == nil {
		db, storedKey, rerr := ReadCache(f, g)
		f.Close()
		switch {
		case rerr != nil:
			stats.LoadErr = rerr
		case storedKey != key:
			stats.LoadErr = fmt.Errorf("paths: cache key mismatch (file %016x, want %016x)", storedKey, key)
		case db.Config().Canonical() != cfg.Canonical() || db.Seed() != seed:
			stats.LoadErr = fmt.Errorf("paths: cache config/seed mismatch")
		default:
			stats.Hit = true
			return db, stats, nil
		}
	}
	db := Build(g, cfg, seed, pairs, workers)
	if err := writeCacheFile(dir, file, db, key); err != nil {
		return nil, stats, err
	}
	return db, stats, nil
}

// writeCacheFile writes the DB to file atomically via a temp file in the
// same directory.
func writeCacheFile(dir, file string, db *DB, key uint64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("paths: cache dir: %w", err)
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(file)+".tmp*")
	if err != nil {
		return fmt.Errorf("paths: cache: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := db.WriteCache(tmp, key); err != nil {
		tmp.Close()
		return fmt.Errorf("paths: cache write: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("paths: cache write: %w", err)
	}
	if err := os.Rename(tmp.Name(), file); err != nil {
		return fmt.Errorf("paths: cache write: %w", err)
	}
	return nil
}
