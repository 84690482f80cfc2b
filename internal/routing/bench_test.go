package routing

import (
	"testing"

	"repro/internal/faults"
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
// k=8 candidate sets (an all-pairs rEDKSP DB over a 16-switch RRG, as the
// experiments build), cycling through every ordered switch pair under a
// randomized static load. Each mechanism has two cells: fault-free, with
// no fault state attached, and degraded, with three of the fixture's
// links down from cycle 0 and every pair's liveness mask (or repaired
// set) already cached, as in the steady state of a fault episode:
//
//	go test ./internal/routing -run '^$' -bench Choose -benchmem
func BenchmarkChoose(b *testing.B) {
	topo, err := jellyfish.New(jellyfish.Params{N: 16, X: 8, Y: 4}, xrand.New(7))
	if err != nil {
		b.Fatal(err)
	}
	g := topo.G
	db := paths.BuildAllPairs(g, ksp.Config{Alg: ksp.REDKSP, K: 8}, 1, 0)
	sched, err := faults.Random(g, 3, 0, xrand.New(5))
	if err != nil {
		b.Fatal(err)
	}

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
			}
		}
	}

	for _, m := range append(Mechanisms(), SP()) {
		for _, degraded := range []bool{false, true} {
			view := View{Provider: db, NumNodes: g.NumNodes(), MaxHops: 12}
			name := m.Name() + "/fault-free"
			if degraded {
				name = m.Name() + "/degraded"
				fst, err := faults.NewState(g, sched, faults.Policy{}, faults.RepairConfigOf(db), view.MaxHops)
				if err != nil {
					b.Fatal(err)
				}
				fst.Advance(0)
				view.Faults = fst
				warm := SP().NewState() // fills the masks and repairs
				for _, pr := range pairs {
					warm.Choose(&view, pr[0], pr[1], est, nil)
				}
			}
			b.Run(name, func(b *testing.B) {
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
}
