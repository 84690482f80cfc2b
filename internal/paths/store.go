package paths

import (
	"slices"
	"sort"

	"repro/internal/graph"
	"repro/internal/par"
)

// store is the CSR-style packed representation of a bulk of path sets:
// every node of every path lives in one flat arena, each path is a view
// (sub-slice) into that arena, and each pair owns a contiguous run of
// those views. Compared with the map-of-slices representation this
// replaces one heap allocation per path (plus one slice per pair) with
// four large allocations for the whole bulk, which is what lets the
// all-pairs databases of the medium and large topologies fit in memory.
//
// A store is immutable after construction and therefore safe to read from
// any number of goroutines without locking. Pairs are kept in ascending
// graph.PairKey order, so iterating the store yields the same order Write
// emits, and each source's pairs form one contiguous row of keys. heads
// and arena follow the same order, the arena holding the paths back to
// back with nothing between them: WriteCache streams both as they are.
type store struct {
	// keys holds the pair keys (graph.PairKey(src, dst)) in strictly
	// ascending order.
	keys []uint64
	// srcOff indexes keys by source: source s's pairs are
	// keys[srcOff[s]:srcOff[s+1]]. len(srcOff) == n+1 for the graph's n
	// nodes.
	srcOff []int32
	// pairOff indexes heads: pair i's paths are
	// heads[pairOff[i]:pairOff[i+1]]. len(pairOff) == len(keys)+1.
	pairOff []int32
	// heads holds one path header per path, all pointing into arena.
	heads []graph.Path
	// arena is the flat node storage for every path.
	arena []graph.NodeID
	// fallbacks is the number of pairs that needed the edge-disjoint
	// top-up fallback during the build that produced this store.
	fallbacks int
}

// sourceOffsets returns srcOff for ascending keys over n nodes.
func sourceOffsets(keys []uint64, n int) []int32 {
	off := make([]int32, n+1)
	for _, k := range keys {
		off[k>>32+1]++
	}
	for s := 0; s < n; s++ {
		off[s+1] += off[s]
	}
	return off
}

// find returns the position of (src, dst) in keys, or -1 when the pair
// is absent, a self pair or out of range. A store holds no self pairs, so
// a complete row (src paired with every other node, as in an all-pairs
// DB) holds dst at offset dst - [dst > src]; a partial row, as in a
// sampled DB, is binary-searched.
func (st *store) find(src, dst graph.NodeID) int {
	n := len(st.srcOff) - 1
	if uint(src) >= uint(n) || uint(dst) >= uint(n) || src == dst {
		return -1
	}
	lo, hi := int(st.srcOff[src]), int(st.srcOff[src+1])
	key := graph.PairKey(src, dst)
	if hi-lo == n-1 {
		i := lo + int(dst)
		if dst > src {
			i--
		}
		if st.keys[i] != key {
			return -1
		}
		return i
	}
	i, ok := slices.BinarySearch(st.keys[lo:hi], key)
	if !ok {
		return -1
	}
	return lo + i
}

// pair returns the path set at position i of keys.
func (st *store) pair(i int) []graph.Path {
	return st.heads[st.pairOff[i]:st.pairOff[i+1]]
}

// StoreStats reports the memory footprint of a DB's packed store.
type StoreStats struct {
	// Pairs, Paths and Nodes count the packed entities.
	Pairs, Paths, Nodes int
	// ArenaBytes, HeadBytes, IndexBytes and OffsetBytes break down the
	// resident size; TotalBytes is their sum. IndexBytes is the
	// per-source offset array, OffsetBytes the pair keys and per-pair
	// path offsets. All are exact.
	ArenaBytes, HeadBytes, IndexBytes, OffsetBytes, TotalBytes int64
}

// StoreStats returns the packed store's footprint. The bool is always
// true: every DB is a packed store.
func (db *DB) StoreStats() (StoreStats, bool) {
	st := db.st
	s := StoreStats{
		Pairs: len(st.keys),
		Paths: len(st.heads),
		Nodes: len(st.arena),
	}
	const (
		nodeBytes   = 4  // graph.NodeID = int32
		headerBytes = 24 // slice header
	)
	s.ArenaBytes = int64(len(st.arena)) * nodeBytes
	s.HeadBytes = int64(len(st.heads)) * headerBytes
	s.OffsetBytes = int64(len(st.keys))*8 + int64(len(st.pairOff))*4
	s.IndexBytes = int64(len(st.srcOff)) * 4
	s.TotalBytes = s.ArenaBytes + s.HeadBytes + s.OffsetBytes + s.IndexBytes
	return s, true
}

// pack builds a store over n nodes from per-pair results. keys[i] is the
// pair key of results[i]; entries need not be sorted but must be unique,
// in range and not self pairs. The node
// copy — the bulk of the work on an all-pairs build — is sharded across
// workers; the output is independent of the worker count.
func pack(n int, keys []uint64, results [][]graph.Path, fallbacks, workers int) *store {
	if len(keys) != len(results) {
		panic("paths: pack keys/results length mismatch")
	}
	order := make([]int, len(keys))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return keys[order[a]] < keys[order[b]] })

	st := &store{
		keys:      make([]uint64, len(keys)),
		pairOff:   make([]int32, len(keys)+1),
		fallbacks: fallbacks,
	}
	numPaths := 0
	numNodes := 0
	for i, oi := range order {
		ps := results[oi]
		st.keys[i] = keys[oi]
		st.pairOff[i] = int32(numPaths)
		numPaths += len(ps)
		for _, p := range ps {
			numNodes += len(p)
		}
	}
	st.pairOff[len(keys)] = int32(numPaths)
	st.srcOff = sourceOffsets(st.keys, n)
	st.heads = make([]graph.Path, numPaths)
	st.arena = make([]graph.NodeID, numNodes)

	// Per-pair arena offsets, then a sharded copy: each worker owns a
	// contiguous range of pairs and writes disjoint arena regions.
	nodeOff := make([]int, len(keys)+1)
	for i, oi := range order {
		n := 0
		for _, p := range results[oi] {
			n += len(p)
		}
		nodeOff[i+1] = nodeOff[i] + n
	}
	par.ForShards(len(keys), workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			off := nodeOff[i]
			first := int(st.pairOff[i])
			for pi, p := range results[order[i]] {
				copy(st.arena[off:], p)
				st.heads[first+pi] = st.arena[off : off+len(p) : off+len(p)]
				off += len(p)
			}
		}
	})
	return st
}
