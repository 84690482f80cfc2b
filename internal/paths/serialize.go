package paths

import (
	"bufio"
	"fmt"
	"io"
)

// Write dumps the DB's path sets as canonical text, for comparing two DBs
// byte for byte (and reading one by eye):
//
//	PATHDB 1
//	config <alg> <k> <seed>
//	pair <src> <dst> <npaths>
//	path <n0> <n1> ... <nm>
//	...
//
// Pairs are emitted in ascending (src, dst) order, so two DBs holding the
// same path sets dump byte-identically however they were made (builds at
// any worker count, cache loads). The dump is not meant to be reloaded:
// to archive a computed DB and load it back, use the binary cache
// (WriteCache, ReadCache, LoadOrBuild).
func (db *DB) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "PATHDB 1\nconfig %s %d %d\n",
		db.cfg.Alg, db.cfg.K, db.seed); err != nil {
		return err
	}
	for i, key := range db.st.keys {
		ps := db.st.pair(i)
		if _, err := fmt.Fprintf(bw, "pair %d %d %d\n", key>>32, uint32(key), len(ps)); err != nil {
			return err
		}
		for _, p := range ps {
			bw.WriteString("path")
			for _, u := range p {
				fmt.Fprintf(bw, " %d", u)
			}
			bw.WriteByte('\n')
		}
	}
	return bw.Flush()
}
