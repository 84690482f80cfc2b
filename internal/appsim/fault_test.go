package appsim

import (
	"reflect"
	"testing"

	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/jellyfish"
	"repro/internal/ksp"
	"repro/internal/routing"
	"repro/internal/traffic"
	"repro/internal/xrand"
)

// termOn returns some terminal attached to the given switch.
func termOn(topo *jellyfish.Topology, sw graph.NodeID) int {
	for term := 0; term < topo.NumTerminals(); term++ {
		if topo.SwitchOf(term) == sw {
			return term
		}
	}
	panic("switch has no terminals")
}

// TestFaultEmptyScheduleBitIdentical is the regression acceptance
// criterion: attaching a nil or empty fault schedule must leave the Result
// bit-identical to a run without any fault configuration.
func TestFaultEmptyScheduleBitIdentical(t *testing.T) {
	topo := jelly(t, 18, 8, 6, 2)
	w := traffic.Stencil(traffic.StencilConfig{
		Kind: traffic.Stencil2DNN, Ranks: topo.NumTerminals(), TotalBytes: 40 * 1500,
	})
	flows := w.Apply(traffic.LinearMapping(topo.NumTerminals()))
	for _, mech := range []routing.Mechanism{routing.Random(), routing.KSPAdaptive()} {
		base := Config{
			Topo:       topo,
			Paths:      pdb(topo, ksp.REDKSP, 4),
			Mechanism:  mech,
			Flows:      flows,
			Seed:       21,
			TrackFlows: true,
		}
		ref, err := Run(base)
		if err != nil {
			t.Fatal(err)
		}

		withNil := base
		withNil.Faults = nil
		withNil.FaultPolicy = faults.Policy{Drop: true}
		withNil.Paths = pdb(topo, ksp.REDKSP, 4)

		withEmpty := base
		withEmpty.Faults = faults.MustSchedule(nil)
		withEmpty.Paths = pdb(topo, ksp.REDKSP, 4)

		for name, cfg := range map[string]Config{"nil": withNil, "empty": withEmpty} {
			got, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s %s: %v", mech.Name(), name, err)
			}
			if !reflect.DeepEqual(got, ref) {
				t.Fatalf("%s: %s schedule changed the Result:\n got %+v\nwant %+v",
					mech.Name(), name, got, ref)
			}
		}
	}
}

// TestFaultDropDrains kills a single-path flow's only route mid-run under
// the drop policy: the run must still drain, with every undeliverable
// packet accounted for in Dropped and the flow completion recorded.
func TestFaultDropDrains(t *testing.T) {
	topo := jelly(t, 16, 8, 6, 7)
	srcSw, dstSw := graph.NodeID(0), graph.NodeID(9)
	db := pdb(topo, ksp.KSP, 1)
	p := db.Paths(srcSw, dstSw)[0]
	sched, err := faults.PathDown(p, 50)
	if err != nil {
		t.Fatal(err)
	}
	const totalPkts = 400
	cfg := Config{
		Topo:        topo,
		Paths:       db,
		Mechanism:   routing.Random(),
		Flows:       []traffic.SizedFlow{{Src: termOn(topo, srcSw), Dst: termOn(topo, dstSw), Bytes: totalPkts * 1500}},
		Faults:      sched,
		FaultPolicy: faults.Policy{Drop: true, NoRepair: true},
		TrackFlows:  true,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Packets+res.Dropped != totalPkts {
		t.Fatalf("conservation broken: delivered %d + dropped %d != %d (%+v)",
			res.Packets, res.Dropped, totalPkts, res)
	}
	if res.Dropped == 0 {
		t.Fatal("drop policy recorded no drops")
	}
	if res.Packets == 0 {
		t.Fatal("pre-fault packets should have been delivered")
	}
	if res.FlowCompletions[0] < 0 {
		t.Fatalf("lossy flow never completed: %+v", res)
	}
	if res.FaultEvents == 0 {
		t.Fatal("schedule did not fire")
	}
}

// TestFaultRerouteCompletes kills one of several candidate paths mid-run
// under the graceful policy: every packet must still be delivered, with
// in-transit ones rerouted around the failure.
func TestFaultRerouteCompletes(t *testing.T) {
	topo := jelly(t, 16, 8, 6, 7)
	srcSw, dstSw := graph.NodeID(0), graph.NodeID(9)
	db := pdb(topo, ksp.REDKSP, 4)
	ps := db.Paths(srcSw, dstSw)
	if len(ps) < 2 {
		t.Fatalf("need >= 2 candidates, got %d", len(ps))
	}
	sched, err := faults.PathDown(ps[0], 30)
	if err != nil {
		t.Fatal(err)
	}
	const totalPkts = 400
	cfg := Config{
		Topo:      topo,
		Paths:     db,
		Mechanism: routing.KSPAdaptive(),
		Flows:     []traffic.SizedFlow{{Src: termOn(topo, srcSw), Dst: termOn(topo, dstSw), Bytes: totalPkts * 1500}},
		Seed:      5,
		Faults:    sched,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Packets != totalPkts {
		t.Fatalf("delivered %d of %d (dropped %d)", res.Packets, int64(totalPkts), res.Dropped)
	}
	if res.Rerouted == 0 {
		t.Fatal("no packet was caught on the failed path; move the fault cycle")
	}
	if res.FaultEvents == 0 {
		t.Fatal("schedule did not fire")
	}
}

// TestFaultRepairCompletes kills every candidate path of the flow's pair,
// so only repair (recompute on the failed-edge-filtered graph) can finish
// the run without losses.
func TestFaultRepairCompletes(t *testing.T) {
	topo := jelly(t, 16, 8, 6, 7)
	srcSw, dstSw := graph.NodeID(2), graph.NodeID(11)
	db := pdb(topo, ksp.REDKSP, 3)
	var evs []faults.Event
	seen := map[uint64]struct{}{}
	for _, p := range db.Paths(srcSw, dstSw) {
		for i := 0; i+1 < len(p); i++ {
			key := graph.UndirectedEdgeKey(p[i], p[i+1])
			if _, dup := seen[key]; dup {
				continue
			}
			seen[key] = struct{}{}
			evs = append(evs, faults.Event{At: 40, U: p[i], V: p[i+1]})
		}
	}
	const totalPkts = 300
	cfg := Config{
		Topo:      topo,
		Paths:     db,
		Mechanism: routing.KSPAdaptive(),
		Flows:     []traffic.SizedFlow{{Src: termOn(topo, srcSw), Dst: termOn(topo, dstSw), Bytes: totalPkts * 1500}},
		Seed:      9,
		Faults:    faults.MustSchedule(evs),
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.PathRepairs == 0 {
		t.Fatalf("whole-set kill triggered no repair: %+v", res)
	}
	if res.Packets != totalPkts {
		t.Fatalf("delivered %d of %d (dropped %d)", res.Packets, int64(totalPkts), res.Dropped)
	}
}

// TestFaultUnroutableFlowDrains: with repair disabled and every path dead
// from cycle 0, the flow cannot send at all — the run must still drain by
// dropping, not spin into the livelock guard.
func TestFaultUnroutableFlowDrains(t *testing.T) {
	topo := jelly(t, 16, 8, 6, 7)
	srcSw, dstSw := graph.NodeID(3), graph.NodeID(12)
	db := pdb(topo, ksp.KSP, 1)
	sched, err := faults.PathDown(db.Paths(srcSw, dstSw)[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	const totalPkts = 50
	cfg := Config{
		Topo:        topo,
		Paths:       db,
		Mechanism:   routing.Random(),
		Flows:       []traffic.SizedFlow{{Src: termOn(topo, srcSw), Dst: termOn(topo, dstSw), Bytes: totalPkts * 1500}},
		Faults:      sched,
		FaultPolicy: faults.Policy{NoRepair: true},
		TrackFlows:  true,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Packets != 0 || res.Dropped != totalPkts {
		t.Fatalf("delivered %d dropped %d, want 0/%d", res.Packets, res.Dropped, int64(totalPkts))
	}
	if res.FlowCompletions[0] < 0 {
		t.Fatalf("dropped flow never completed: %+v", res)
	}
}

// liveOnlyMech wraps a routing.Mechanism so every choice made through it
// is audited: while faults are active, a selected path crossing a failed
// link fails the test. The wrapped state does the real choosing, so the
// audit covers both injection-time choices and reroutes of caught packets.
type liveOnlyMech struct {
	routing.Mechanism
	t *testing.T
}

func (m liveOnlyMech) NewState() routing.State {
	return liveOnlyState{inner: m.Mechanism.NewState(), name: m.Name(), t: m.t}
}

type liveOnlyState struct {
	inner routing.State
	name  string
	t     *testing.T
}

func (s liveOnlyState) Choose(v *routing.View, src, dst graph.NodeID, load routing.LoadEstimator, rng *xrand.RNG) (graph.Path, int) {
	p, idx := s.inner.Choose(v, src, dst, load, rng)
	if p != nil && v.Faults != nil && v.Faults.Active() && !v.Faults.PathAlive(p) {
		s.t.Errorf("%s selected dead path %v for %d->%d", s.name, p, src, dst)
	}
	return p, idx
}

// TestFaultMechanismsAvoidDeadPaths kills four random links mid-run and
// checks, mechanism by mechanism, that no selection made while the faults
// are active crosses a failed link: the live-candidate masks must gate
// every injection-time choice and every reroute.
func TestFaultMechanismsAvoidDeadPaths(t *testing.T) {
	topo := jelly(t, 16, 8, 6, 7)
	sched, err := faults.Random(topo.G, 4, 40, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	w := traffic.Stencil(traffic.StencilConfig{
		Kind: traffic.Stencil2DNN, Ranks: topo.NumTerminals(), TotalBytes: 40 * 1500,
	})
	flows := w.Apply(traffic.LinearMapping(topo.NumTerminals()))
	for _, mech := range append(routing.Mechanisms(), routing.SP()) {
		t.Run(mech.Name(), func(t *testing.T) {
			cfg := Config{
				Topo:      topo,
				Paths:     pdb(topo, ksp.REDKSP, 4),
				Mechanism: liveOnlyMech{Mechanism: mech, t: t},
				Flows:     flows,
				Seed:      31,
				Faults:    sched,
			}
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.FaultEvents == 0 {
				t.Fatal("schedule did not fire")
			}
			if res.Packets == 0 {
				t.Fatal("no traffic delivered")
			}
		})
	}
}

// TestFaultConfigValidation covers Validate and schedule checking.
func TestFaultConfigValidation(t *testing.T) {
	topo := jelly(t, 8, 6, 4, 1)
	good := Config{
		Topo:      topo,
		Paths:     pdb(topo, ksp.KSP, 2),
		Mechanism: routing.Random(),
		Flows:     []traffic.SizedFlow{{Src: 0, Dst: 4, Bytes: 1500}},
	}
	if _, err := Run(good); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	nonEdge := faults.Event{U: 0, V: 1}
	for v := graph.NodeID(1); int(v) < topo.G.NumNodes(); v++ {
		if !topo.G.HasEdge(0, v) {
			nonEdge.V = v
			break
		}
	}
	if topo.G.HasEdge(nonEdge.U, nonEdge.V) {
		t.Fatal("switch 0 is connected to everything; shrink y")
	}
	mutate := map[string]func(*Config){
		"no topo":        func(c *Config) { c.Topo = nil },
		"no paths":       func(c *Config) { c.Paths = nil },
		"neg vcs":        func(c *Config) { c.NumVCs = -2 },
		"fault non-edge": func(c *Config) { c.Faults = faults.MustSchedule([]faults.Event{nonEdge}) },
	}
	for name, f := range mutate {
		c := good
		f(&c)
		if _, err := Run(c); err == nil {
			t.Fatalf("%s: Run accepted invalid config", name)
		}
	}
}
