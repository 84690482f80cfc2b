package routing

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/jellyfish"
	"repro/internal/ksp"
	"repro/internal/paths"
	"repro/internal/xrand"
)

// benchSink keeps Choose results observable so the compiler cannot
// eliminate the calls under test.
var benchSink graph.Path

// BenchmarkChoose measures one Choose call per mechanism on the paper's
// k=8 candidate sets (rEDKSP over a 16-switch RRG), cycling through every
// ordered switch pair under a randomized static load:
//
//	go test ./internal/routing -run '^$' -bench Choose -benchmem
func BenchmarkChoose(b *testing.B) {
	topo, err := jellyfish.New(jellyfish.Params{N: 16, X: 8, Y: 4}, xrand.New(7))
	if err != nil {
		b.Fatal(err)
	}
	g := topo.G
	db := paths.NewDB(g, ksp.Config{Alg: ksp.REDKSP, K: 8}, 1)
	view := View{Provider: db, NumNodes: g.NumNodes(), MaxHops: 12}

	occ := make([]int32, g.NumDirectedLinks())
	load := xrand.New(3)
	for i := range occ {
		occ[i] = int32(load.IntN(50))
	}
	est := NewOccupancyEstimator(g, occ)

	var pairs [][2]graph.NodeID
	for s := 0; s < g.NumNodes(); s++ {
		for d := 0; d < g.NumNodes(); d++ {
			if s != d {
				pairs = append(pairs, [2]graph.NodeID{graph.NodeID(s), graph.NodeID(d)})
				// Warm the lazy path DB outside the timed region.
				db.Paths(graph.NodeID(s), graph.NodeID(d))
			}
		}
	}

	for _, m := range append(Mechanisms(), SP()) {
		b.Run(m.Name(), func(b *testing.B) {
			st := m.NewState()
			rng := xrand.New(1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pr := pairs[i%len(pairs)]
				benchSink, _ = st.Choose(&view, pr[0], pr[1], est, rng)
			}
		})
	}
}
