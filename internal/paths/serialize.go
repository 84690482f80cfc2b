package paths

import (
	"bufio"
	"fmt"
	"io"
	"slices"

	"repro/internal/graph"
)

// forEachSorted calls fn for every stored pair in ascending
// (src, dst) key order, merging the packed store with the lazy fills.
// It holds the DB's read lock for the duration.
func (db *DB) forEachSorted(fn func(key uint64, ps []graph.Path) error) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.forEachSortedLocked(fn)
}

// forEachSortedLocked is forEachSorted with db.mu already held (read or
// write), for callers that need a stable view across several passes.
func (db *DB) forEachSortedLocked(fn func(key uint64, ps []graph.Path) error) error {
	lazy := make([]uint64, 0, len(db.m))
	for key := range db.m {
		lazy = append(lazy, key)
	}
	slices.Sort(lazy)
	var packed []uint64
	if db.st != nil {
		packed = db.st.keys
	}
	i, j := 0, 0
	for i < len(packed) || j < len(lazy) {
		switch {
		case j >= len(lazy) || (i < len(packed) && packed[i] <= lazy[j]):
			if j < len(lazy) && packed[i] == lazy[j] {
				j++ // defensive: store wins if a key is somehow in both
			}
			if err := fn(packed[i], db.st.pair(i)); err != nil {
				return err
			}
			i++
		default:
			if err := fn(lazy[j], db.m[lazy[j]]); err != nil {
				return err
			}
			j++
		}
	}
	return nil
}

// Write dumps the DB's currently stored path sets as canonical text, for
// comparing two DBs byte for byte (and reading one by eye):
//
//	PATHDB 1
//	config <alg> <k> <seed>
//	pair <src> <dst> <npaths>
//	path <n0> <n1> ... <nm>
//	...
//
// Pairs are emitted in ascending (src, dst) order, so two DBs holding the
// same path sets dump byte-identically regardless of how they were filled
// (eager builds at any worker count, cache loads, lazy fills in any
// order). The dump is not meant to be reloaded: to archive a computed DB
// and load it back, use the binary cache (WriteCache, ReadCache,
// LoadOrBuild).
func (db *DB) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "PATHDB 1\nconfig %s %d %d\n",
		db.cfg.Alg, db.cfg.K, db.seed); err != nil {
		return err
	}
	err := db.forEachSorted(func(key uint64, ps []graph.Path) error {
		src := graph.NodeID(key >> 32)
		dst := graph.NodeID(uint32(key))
		if _, err := fmt.Fprintf(bw, "pair %d %d %d\n", src, dst, len(ps)); err != nil {
			return err
		}
		for _, p := range ps {
			bw.WriteString("path")
			for _, u := range p {
				fmt.Fprintf(bw, " %d", u)
			}
			bw.WriteByte('\n')
		}
		return nil
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}
