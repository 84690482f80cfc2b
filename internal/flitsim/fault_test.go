package flitsim

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

// singleFlow injects from one terminal to one terminal every cycle.
type singleFlow struct{ src, dst int }

func (f singleFlow) Name() string { return "single-flow" }
func (f singleFlow) Dest(src int, _ *xrand.RNG) (int, bool) {
	if src != f.src {
		return 0, false
	}
	return f.dst, true
}

// TestFaultEmptyScheduleBitIdentical is the regression acceptance
// criterion: attaching a nil or empty fault schedule must leave the
// Result bit-identical to a run without any fault configuration.
func TestFaultEmptyScheduleBitIdentical(t *testing.T) {
	topo := jelly(t, 12, 6, 4, 3)
	for _, mech := range routing.Mechanisms() {
		base := Config{
			Topo:          topo,
			Paths:         db(topo, ksp.REDKSP, 4),
			Mechanism:     mech,
			Traffic:       traffic.Uniform{N: topo.NumTerminals()},
			InjectionRate: 0.3,
			Seed:          99,
		}
		ref, _ := runWith(base, WarmupCycles, 3)

		withNil := base
		withNil.Faults = nil
		withNil.FaultPolicy = faults.Policy{Drop: true}
		// Fresh DB: a run must not depend on which DB instance it reads.
		withNil.Paths = db(topo, ksp.REDKSP, 4)

		withEmpty := base
		withEmpty.Faults = faults.MustSchedule(nil)
		withEmpty.Paths = db(topo, ksp.REDKSP, 4)

		for name, cfg := range map[string]Config{"nil": withNil, "empty": withEmpty} {
			got, _ := runWith(cfg, WarmupCycles, 3)
			if !reflect.DeepEqual(got, ref) {
				t.Fatalf("%s: %s schedule changed the Result:\n got %+v\nwant %+v",
					mech.Name(), name, got, ref)
			}
		}
	}
}

// TestFaultRecoveryVsSPCollapse is the dynamic acceptance criterion: fail
// every link of one rEDKSP candidate path mid-run. Multi-path adaptive
// routing with the reroute policy must recover its delivered throughput to
// within 10% of the pre-fault window; single-path SP routing under the
// drop policy must collapse.
func TestFaultRecoveryVsSPCollapse(t *testing.T) {
	topo := jelly(t, 16, 8, 6, 7)
	srcSw, dstSw := graph.NodeID(0), graph.NodeID(9)
	srcTerm := termOn(topo, srcSw)
	dstTerm := termOn(topo, dstSw)

	base := Config{
		Topo:          topo,
		Traffic:       singleFlow{src: srcTerm, dst: dstTerm},
		InjectionRate: 1.0,
		Seed:          11,
	}
	// Fault fires mid-sample-2: warmup 500 + 2.5 windows of 500.
	const faultAt = 500 + 1250

	// Multi-path run: rEDKSP candidates, adaptive mechanism, graceful
	// policy; the schedule kills every link of the pair's first candidate.
	mdb := db(topo, ksp.REDKSP, 4)
	mpaths := mdb.Paths(srcSw, dstSw)
	if len(mpaths) < 2 {
		t.Fatalf("need >= 2 candidate paths, got %d", len(mpaths))
	}
	sched, err := faults.PathDown(mpaths[0], faultAt)
	if err != nil {
		t.Fatal(err)
	}
	multi := base
	multi.Paths = mdb
	multi.Mechanism = routing.KSPAdaptive()
	multi.Faults = sched

	mres, sim := runWith(multi, WarmupCycles, 6)
	pre, post := mres.SampleDelivered[1], mres.SampleDelivered[5]
	if pre == 0 {
		t.Fatalf("no pre-fault traffic: %+v", mres)
	}
	if float64(post) < 0.9*float64(pre) {
		t.Fatalf("multi-path did not recover: pre-fault window %d, final window %d (samples %v)",
			pre, post, mres.SampleDelivered)
	}
	if mres.FaultEvents == 0 {
		t.Fatal("schedule did not fire")
	}
	if mres.Injected != mres.Delivered+mres.Dropped+mres.InFlight {
		t.Fatalf("conservation broken: %+v", mres)
	}
	if got := sim.QueuedPackets(); got != mres.InFlight {
		t.Fatalf("QueuedPackets %d != InFlight %d", got, mres.InFlight)
	}

	// Single-path run: K=1 shortest path, drop policy, no repair; the
	// schedule kills the flow's only path.
	sdb := db(topo, ksp.KSP, 1)
	spath := sdb.Paths(srcSw, dstSw)[0]
	ssched, err := faults.PathDown(spath, faultAt)
	if err != nil {
		t.Fatal(err)
	}
	single := base
	single.Paths = sdb
	single.Mechanism = routing.SP()
	single.Faults = ssched
	single.FaultPolicy = faults.Policy{Drop: true, NoRepair: true}

	sres, _ := runWith(single, WarmupCycles, 6)
	spre, spost := sres.SampleDelivered[1], sres.SampleDelivered[5]
	if spre == 0 {
		t.Fatalf("no pre-fault SP traffic: %+v", sres)
	}
	if float64(spost) > 0.1*float64(spre) {
		t.Fatalf("SP did not collapse: pre-fault window %d, final window %d (samples %v)",
			spre, spost, sres.SampleDelivered)
	}
	if sres.Dropped == 0 {
		t.Fatal("drop policy recorded no drops")
	}
	if sres.Injected != sres.Delivered+sres.Dropped+sres.InFlight {
		t.Fatalf("conservation broken: %+v", sres)
	}
}

// TestFaultRepairRecovers kills every candidate path of the observed pair
// so only the repair machinery (recompute on the failed-edge-filtered
// graph) can restore service.
func TestFaultRepairRecovers(t *testing.T) {
	topo := jelly(t, 16, 8, 6, 7)
	srcSw, dstSw := graph.NodeID(2), graph.NodeID(11)
	pdb := db(topo, ksp.REDKSP, 3)
	ps := pdb.Paths(srcSw, dstSw)
	var evs []faults.Event
	seen := map[uint64]struct{}{}
	for _, p := range ps {
		for i := 0; i+1 < len(p); i++ {
			key := graph.UndirectedEdgeKey(p[i], p[i+1])
			if _, dup := seen[key]; dup {
				continue
			}
			seen[key] = struct{}{}
			evs = append(evs, faults.Event{At: 500 + 1250, U: p[i], V: p[i+1]})
		}
	}
	cfg := Config{
		Topo:          topo,
		Paths:         pdb,
		Mechanism:     routing.KSPAdaptive(),
		Traffic:       singleFlow{src: termOn(topo, srcSw), dst: termOn(topo, dstSw)},
		InjectionRate: 1.0,
		Seed:          13,
		Faults:        faults.MustSchedule(evs),
	}
	res, _ := runWith(cfg, WarmupCycles, 6)
	if res.PathRepairs == 0 {
		t.Fatalf("whole-set kill triggered no repair: %+v", res)
	}
	pre, post := res.SampleDelivered[1], res.SampleDelivered[5]
	if float64(post) < 0.9*float64(pre) {
		t.Fatalf("repair did not restore throughput: pre %d, final %d (samples %v)",
			pre, post, res.SampleDelivered)
	}
}

// TestFaultLinkUpRestores checks that a link-up event revives a dead path:
// with repair disabled and every candidate down, traffic stops, and after
// restoration it resumes.
func TestFaultLinkUpRestores(t *testing.T) {
	topo := jelly(t, 16, 8, 6, 7)
	srcSw, dstSw := graph.NodeID(3), graph.NodeID(12)
	pdb := db(topo, ksp.KSP, 1)
	p := pdb.Paths(srcSw, dstSw)[0]
	var evs []faults.Event
	for i := 0; i+1 < len(p); i++ {
		evs = append(evs, faults.Event{At: 1750, U: p[i], V: p[i+1]})
		evs = append(evs, faults.Event{At: 2250, Up: true, U: p[i], V: p[i+1]})
	}
	cfg := Config{
		Topo:          topo,
		Paths:         pdb,
		Mechanism:     routing.SP(),
		Traffic:       singleFlow{src: termOn(topo, srcSw), dst: termOn(topo, dstSw)},
		InjectionRate: 1.0,
		Seed:          17,
		Faults:        faults.MustSchedule(evs),
		FaultPolicy:   faults.Policy{Drop: true, NoRepair: true},
	}
	res, _ := runWith(cfg, WarmupCycles, 6)
	// Sample 2 (cycles 1500-2000) brackets the failure, sample 3 the
	// restoration; the final windows must flow like the pre-fault ones.
	pre, post := res.SampleDelivered[1], res.SampleDelivered[5]
	if float64(post) < 0.9*float64(pre) {
		t.Fatalf("link-up did not restore throughput: pre %d, final %d (samples %v)",
			pre, post, res.SampleDelivered)
	}
	if res.Dropped == 0 {
		t.Fatal("expected drops while the only path was down")
	}
}

// liveOnlyMech wraps a routing.Mechanism so every choice made through it
// is audited: while faults are active, a selected path crossing a failed
// link fails the test. It exercises the real Mechanism code (the wrapped
// state does the choosing) on both the injection and reroute paths.
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
	sched, err := faults.Random(topo.G, 4, 1000, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, mech := range append(routing.Mechanisms(), routing.SP()) {
		t.Run(mech.Name(), func(t *testing.T) {
			cfg := Config{
				Topo:          topo,
				Paths:         db(topo, ksp.REDKSP, 4),
				Mechanism:     liveOnlyMech{Mechanism: mech, t: t},
				Traffic:       traffic.Uniform{N: topo.NumTerminals()},
				InjectionRate: 0.3,
				Seed:          23,
				Faults:        sched,
			}
			res, _ := runWith(cfg, WarmupCycles, 4)
			if res.FaultEvents == 0 {
				t.Fatal("schedule did not fire")
			}
			if res.Delivered == 0 {
				t.Fatal("no traffic delivered")
			}
		})
	}
}

// TestFaultConfigValidation covers the error-returning constructor.
func TestFaultConfigValidation(t *testing.T) {
	topo := jelly(t, 8, 6, 4, 1)
	good := Config{
		Topo:      topo,
		Paths:     db(topo, ksp.KSP, 2),
		Mechanism: routing.SP(),
		Traffic:   traffic.Uniform{N: topo.NumTerminals()},
	}
	if _, err := NewSim(good); err != nil {
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
		"no mechanism":   func(c *Config) { c.Mechanism = nil },
		"no traffic":     func(c *Config) { c.Traffic = nil },
		"rate < 0":       func(c *Config) { c.InjectionRate = -0.1 },
		"rate > 1":       func(c *Config) { c.InjectionRate = 1.5 },
		"neg vcs":        func(c *Config) { c.NumVCs = -2 },
		"fault non-edge": func(c *Config) { c.Faults = faults.MustSchedule([]faults.Event{nonEdge}) },
	}
	for name, f := range mutate {
		c := good
		f(&c)
		if _, err := NewSim(c); err == nil {
			t.Fatalf("%s: NewSim accepted invalid config", name)
		}
	}
}

// termOn returns some terminal attached to the given switch.
func termOn(topo *jellyfish.Topology, sw graph.NodeID) int {
	for term := 0; term < topo.NumTerminals(); term++ {
		if topo.SwitchOf(term) == sw {
			return term
		}
	}
	panic("switch has no terminals")
}
