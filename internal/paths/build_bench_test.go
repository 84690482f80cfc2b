package paths

import (
	"testing"

	"repro/internal/jellyfish"
	"repro/internal/ksp"
	"repro/internal/xrand"
)

var dbSink *DB

// BenchmarkBuildAllPairs times one k=8 all-pairs build of RRG(36,24,16)
// on one worker per op, for each of the four selectors: the DBs the
// Figure 9 and Table V set-ups build, where rKSP and rEDKSP take most of
// the time. The KSP and EDKSP cells guard the goal-directed
// deterministic search on a small graph, where a destination's ball
// covers most of the graph and pays off only because Build hands a
// worker the pairs of one destination in a row; the rKSP and rEDKSP
// cells guard the randomized search, which scans whole frontiers.
//
//	go test ./internal/paths -run '^$' -bench BuildAllPairs -benchmem -count 5
func BenchmarkBuildAllPairs(b *testing.B) {
	g := jellyfish.MustNew(jellyfish.Small, xrand.New(1)).G
	for _, alg := range ksp.Algorithms {
		b.Run(alg.String(), func(b *testing.B) {
			cfg := ksp.Config{Alg: alg, K: 8}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dbSink = BuildAllPairs(g, cfg, 1, 1)
			}
		})
	}
}
