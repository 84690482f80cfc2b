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

// The cross-simulator parity test. Both simulators route through this
// package's Choose code and price candidates with one OccupancyEstimator
// over their own per-link occupancy, so what must hold is that the
// estimator's cached first-link row prices exactly like the definition
// it caches. linkIDEstimator is that definition, resolving every first
// link with graph.LinkID's binary search; it serves as the oracle.
// Identical seeds, candidate sets and occupancy must yield identical
// (path, candidate index) sequences for every mechanism, healthy and
// degraded alike.

// linkIDEstimator is the oracle: first-link occupancy × hop count, with
// the first link found by graph.LinkID.
type linkIDEstimator struct {
	g   *graph.Graph
	occ []int32
}

func (e *linkIDEstimator) PathCost(p graph.Path) int {
	h := p.Hops()
	if h <= 0 {
		return 0
	}
	return int(e.occ[e.g.LinkID(p[0], p[1])]) * h
}

func TestCrossSimulatorParity(t *testing.T) {
	const (
		seed    = 42
		k       = 8
		maxHops = 12
		draws   = 400
	)
	topo, err := jellyfish.New(jellyfish.Params{N: 16, X: 8, Y: 4}, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	g := topo.G
	db := paths.NewDB(g, ksp.Config{Alg: ksp.REDKSP, K: k}, 1)

	// One occupancy array read by both estimators through different code
	// paths.
	occ := make([]int32, g.NumDirectedLinks())
	oracle := &linkIDEstimator{g: g, occ: occ}
	shared := NewOccupancyEstimator(g, occ)

	// Kill every link of one candidate path mid-run for the degraded
	// phase; both runs share the schedule (schedules are immutable).
	victim := db.Paths(0, 5)[0]
	sched, err := faults.PathDown(victim, 0)
	if err != nil {
		t.Fatal(err)
	}
	policy, err := faults.PolicyByName("reroute")
	if err != nil {
		t.Fatal(err)
	}

	for _, m := range append(Mechanisms(), SP()) {
		t.Run(m.Name(), func(t *testing.T) {
			fstA, err := faults.NewState(g, sched, policy, faults.RepairConfigOf(db), maxHops)
			if err != nil {
				t.Fatal(err)
			}
			fstB, err := faults.NewState(g, sched, policy, faults.RepairConfigOf(db), maxHops)
			if err != nil {
				t.Fatal(err)
			}
			viewA := View{Provider: db, Faults: fstA, NumNodes: g.NumNodes(), MaxHops: maxHops}
			viewB := View{Provider: db, Faults: fstB, NumNodes: g.NumNodes(), MaxHops: maxHops}
			stateA, stateB := m.NewState(), m.NewState()
			rngA, rngB := xrand.New(seed), xrand.New(seed)

			// drive feeds both engines the identical (src, dst) request
			// stream while churning the shared load state. Between
			// choices it prices every candidate of another random pair
			// directly, so the shared estimator's row is rebuilt for a
			// different source before most choices.
			drive := func(phase string) {
				traffic := xrand.New(99)
				for i := 0; i < draws; i++ {
					occ[traffic.IntN(len(occ))] = int32(traffic.IntN(50))
					src := graph.NodeID(traffic.IntN(g.NumNodes()))
					dst := graph.NodeID(traffic.IntN(g.NumNodes()))
					pA, iA := stateA.Choose(&viewA, src, dst, oracle, rngA)
					pB, iB := stateB.Choose(&viewB, src, dst, shared, rngB)
					if iA != iB || !pA.Equal(pB) || (pA == nil) != (pB == nil) {
						t.Fatalf("%s draw %d (%d->%d): oracle chose %v (idx %d), shared estimator chose %v (idx %d)",
							phase, i, src, dst, pA, iA, pB, iB)
					}
					other := graph.NodeID(traffic.IntN(g.NumNodes()))
					for _, p := range db.Paths(other, src) {
						if a, b := oracle.PathCost(p), shared.PathCost(p); a != b {
							t.Fatalf("%s draw %d: path %v costs %d by LinkID, %d by the cached row", phase, i, p, a, b)
						}
					}
				}
			}

			drive("healthy")

			// Fire the fault schedule identically on both sides and keep
			// comparing: degraded-mode masks, repairs and detour bounds
			// must stay in lockstep too.
			if len(fstA.Advance(0)) == 0 || len(fstB.Advance(0)) == 0 {
				t.Fatal("fault schedule did not fire")
			}
			if !fstA.Active() || !fstB.Active() {
				t.Fatal("fault state not active after Advance")
			}
			drive("degraded")
		})
	}
}

// TestParityRNGConsumption pins the stronger property behind parity: a
// mechanism's RNG consumption depends only on the request stream, never
// on the estimator, so the two runs cannot drift apart mid-sequence.
func TestParityRNGConsumption(t *testing.T) {
	topo, err := jellyfish.New(jellyfish.Params{N: 16, X: 8, Y: 4}, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	g := topo.G
	db := paths.NewDB(g, ksp.Config{Alg: ksp.REDKSP, K: 8}, 1)
	v := &View{Provider: db, NumNodes: g.NumNodes(), MaxHops: 12}

	zero := funcEstimator(func(graph.Path) int { return 0 })
	hot := funcEstimator(func(p graph.Path) int { return p.Hops() * 37 })

	for _, m := range append(Mechanisms(), SP()) {
		stA, stB := m.NewState(), m.NewState()
		rngA, rngB := xrand.New(5), xrand.New(5)
		traffic := xrand.New(11)
		for i := 0; i < 200; i++ {
			src := graph.NodeID(traffic.IntN(g.NumNodes()))
			dst := graph.NodeID(traffic.IntN(g.NumNodes()))
			stA.Choose(v, src, dst, zero, rngA)
			stB.Choose(v, src, dst, hot, rngB)
			if a, b := rngA.Uint64(), rngB.Uint64(); a != b {
				t.Fatalf("%s: RNG streams diverged after draw %d under different estimators", m.Name(), i)
			}
			// Re-sync the two generators after the probe draw.
			rngA, rngB = xrand.New(uint64(i)*2+13), xrand.New(uint64(i)*2+13)
		}
	}
}
