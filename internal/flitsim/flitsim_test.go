package flitsim

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/jellyfish"
	"repro/internal/ksp"
	"repro/internal/paths"
	"repro/internal/routing"
	"repro/internal/traffic"
	"repro/internal/xrand"
)

// oneShot injects exactly one packet from src to dst at cycle 0.
type oneShot struct {
	src, dst int
	fired    bool
}

func (o *oneShot) Name() string { return "one-shot" }
func (o *oneShot) Dest(src int, _ *xrand.RNG) (int, bool) {
	if src != o.src || o.fired {
		return 0, false
	}
	o.fired = true
	return o.dst, true
}

func lineTopo(nSwitches, termsPer int) *jellyfish.Topology {
	b := graph.NewBuilder(nSwitches)
	for i := 0; i+1 < nSwitches; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	return &jellyfish.Topology{G: b.Graph(), N: nSwitches, X: termsPer + 2, Y: 2}
}

func jelly(t testing.TB, n, x, y int, seed uint64) *jellyfish.Topology {
	t.Helper()
	topo, err := jellyfish.New(jellyfish.Params{N: n, X: x, Y: y}, xrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func db(topo *jellyfish.Topology, alg ksp.Algorithm, k int) *paths.DB {
	return paths.BuildAllPairs(topo.G, ksp.Config{Alg: alg, K: k}, 1, 0)
}

// Step advances the clock by exactly n cycles without recording
// statistics, for tests that inspect a run part-way. The conservation
// counters reflect everything that happened in those n cycles (pinned by
// TestStepContract).
func (s *Sim) Step(n int) {
	var a, b int64
	s.advanceTo(s.clock+int64(n), false, &a, &b)
}

// smallCfg is the golden harness's jelly(12,8,4,3) with an rEDKSP k=4
// path DB, KSP-adaptive routing and uniform traffic at the given load.
func smallCfg(t testing.TB, load float64, seed uint64) Config {
	topo := jelly(t, 12, 8, 4, 3)
	return Config{
		Topo:          topo,
		Paths:         db(topo, ksp.REDKSP, 4),
		Mechanism:     routing.KSPAdaptive(),
		Traffic:       traffic.Uniform{N: topo.NumTerminals()},
		InjectionRate: load,
		Seed:          seed,
	}
}

// runWith runs cfg under a shortened measurement protocol: warmup cycles
// of warmup, then samples windows of SampleCycles each.
func runWith(cfg Config, warmup, samples int) (Result, *Sim) {
	s := New(cfg)
	s.warmup, s.samples = warmup, samples
	return s.Run(), s
}

func TestSinglePacketLatency(t *testing.T) {
	// One packet over a 3-hop path: injection wait 1 + injection channel 1
	// + 3 x 10 network channels + ejection channel 1 = 33 cycles.
	topo := lineTopo(4, 1)
	cfg := Config{
		Topo:      topo,
		Paths:     db(topo, ksp.KSP, 1),
		Mechanism: routing.SP(),
		Traffic:   &oneShot{src: 0, dst: 3},
		// InjectionRate gates generation; the sampler fires once.
		InjectionRate: 1,
		NumVCs:        8,
	}
	res, _ := runWith(cfg, 0, NumSamples)
	if res.Delivered != 1 {
		t.Fatalf("delivered = %d", res.Delivered)
	}
	if res.AvgLatency != 33 {
		t.Fatalf("latency = %v, want 33", res.AvgLatency)
	}
	if res.MaxHops != 3 {
		t.Fatalf("hops = %d", res.MaxHops)
	}
}

func TestSameSwitchPacket(t *testing.T) {
	topo := lineTopo(2, 2) // terminals 0,1 on switch 0
	cfg := Config{
		Topo:          topo,
		Paths:         db(topo, ksp.KSP, 1),
		Mechanism:     routing.SP(),
		Traffic:       &oneShot{src: 0, dst: 1},
		InjectionRate: 1,
		NumVCs:        4,
	}
	res, _ := runWith(cfg, 0, NumSamples)
	if res.Delivered != 1 {
		t.Fatalf("delivered = %d", res.Delivered)
	}
	// Injection wait 1 + injection channel 1 + ejection channel 1 = 3.
	if res.AvgLatency != 3 {
		t.Fatalf("latency = %v, want 3", res.AvgLatency)
	}
}

func TestConservation(t *testing.T) {
	topo := jelly(t, 12, 8, 4, 3)
	cfg := Config{
		Topo:          topo,
		Paths:         db(topo, ksp.REDKSP, 4),
		Mechanism:     routing.KSPAdaptive(),
		Traffic:       traffic.Uniform{N: topo.NumTerminals()},
		InjectionRate: 0.3,
		Seed:          7,
	}
	s := New(cfg)
	s.Step(2000)
	inj, del, inFlight := s.Counts()
	if inj == 0 || del == 0 {
		t.Fatalf("injected=%d delivered=%d", inj, del)
	}
	if got := s.QueuedPackets(); got != inFlight {
		t.Fatalf("conservation violated: counted %d in network, expected %d", got, inFlight)
	}
}

// TestStepContract pins Sim.Step's external contract: the clock advances
// by exactly n, and the conservation counters agree with a recount of
// every queue.
func TestStepContract(t *testing.T) {
	s := New(smallCfg(t, 0.05, 9))
	s.Step(137)
	if s.Clock() != 137 {
		t.Fatalf("clock %d after Step(137)", s.Clock())
	}
	s.Step(1)
	s.Step(0)
	s.Step(862)
	if s.Clock() != 1000 {
		t.Fatalf("clock %d, want 1000", s.Clock())
	}
	inj, del, fly := s.Counts()
	if inj == 0 || del == 0 {
		t.Fatalf("nothing moved (injected %d delivered %d)", inj, del)
	}
	if inj != del+s.Dropped()+fly {
		t.Fatalf("conservation broken: %d != %d+%d+%d", inj, del, s.Dropped(), fly)
	}
	if got := s.QueuedPackets(); got != fly {
		t.Fatalf("recount %d != inFlight %d", got, fly)
	}
}

func TestDeterminism(t *testing.T) {
	topo := jelly(t, 12, 8, 4, 3)
	mk := func() Result {
		return New(Config{
			Topo:          topo,
			Paths:         paths.BuildAllPairs(topo.G, ksp.Config{Alg: ksp.REDKSP, K: 4}, 11, 0),
			Mechanism:     routing.KSPAdaptive(),
			Traffic:       traffic.Uniform{N: topo.NumTerminals()},
			InjectionRate: 0.4,
			Seed:          21,
		}).Run()
	}
	a, b := mk(), mk()
	if a.AvgLatency != b.AvgLatency || a.Delivered != b.Delivered {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestLowLoadNotSaturatedHighLoadSaturated(t *testing.T) {
	topo := jelly(t, 12, 8, 4, 3)
	pdb := db(topo, ksp.KSP, 4)
	run := func(rate float64) Result {
		return New(Config{
			Topo:          topo,
			Paths:         pdb,
			Mechanism:     routing.SP(),
			Traffic:       traffic.Uniform{N: topo.NumTerminals()},
			InjectionRate: rate,
			Seed:          5,
		}).Run()
	}
	low := run(0.05)
	if low.Saturated {
		t.Fatalf("5%% load saturated: %+v", low.SampleLatencies)
	}
	if low.AvgLatency <= 0 {
		t.Fatal("no latency recorded at low load")
	}
	// Single-path routing at full uniform load on a y=4 RRG must saturate:
	// 4 terminals per switch inject 1 flit/cycle into 4 network links with
	// multi-hop paths.
	high := run(1.0)
	if !high.Saturated {
		t.Fatalf("full load not saturated: avg latency %v", high.AvgLatency)
	}
}

func TestAllMechanismsDeliver(t *testing.T) {
	topo := jelly(t, 12, 8, 4, 3)
	pdb := db(topo, ksp.REDKSP, 4)
	for _, mech := range append(routing.Mechanisms(), routing.SP()) {
		res := New(Config{
			Topo:          topo,
			Paths:         pdb,
			Mechanism:     mech,
			Traffic:       traffic.Uniform{N: topo.NumTerminals()},
			InjectionRate: 0.2,
			Seed:          9,
		}).Run()
		if res.Delivered == 0 {
			t.Fatalf("%s delivered nothing", mech.Name())
		}
		if res.Saturated {
			t.Fatalf("%s saturated at 20%% load", mech.Name())
		}
		if res.Injected != res.Delivered+res.InFlight {
			t.Fatalf("%s conservation: %d != %d + %d",
				mech.Name(), res.Injected, res.Delivered, res.InFlight)
		}
	}
}

func TestUGALUsesNonMinimalPaths(t *testing.T) {
	// Under heavy permutation load vanilla UGAL should sometimes divert to
	// non-minimal paths, observable as MaxHops above the k-path maximum.
	topo := jelly(t, 12, 8, 4, 3)
	pdb := db(topo, ksp.KSP, 2)
	res := New(Config{
		Topo:          topo,
		Paths:         pdb,
		Mechanism:     routing.VanillaUGAL(),
		Traffic:       traffic.NewFixedSampler(traffic.RandomPermutation(topo.NumTerminals(), xrand.New(2))),
		InjectionRate: 0.9,
		Seed:          13,
	}).Run()
	if res.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
	if res.MaxHops < 3 {
		t.Fatalf("UGAL never took a long path (max hops %d)", res.MaxHops)
	}
}

func TestPermutationTraffic(t *testing.T) {
	// Like the paper's topologies, keep the network ports at about twice
	// the terminal count per switch (RRG(36,24,16) has 8 terminals and 16
	// links); an oversubscribed switch would saturate regardless of
	// routing.
	topo := jelly(t, 12, 9, 6, 3)
	pdb := db(topo, ksp.REDKSP, 4)
	pat := traffic.RandomPermutation(topo.NumTerminals(), xrand.New(1))
	res := New(Config{
		Topo:          topo,
		Paths:         pdb,
		Mechanism:     routing.KSPAdaptive(),
		Traffic:       traffic.NewFixedSampler(pat),
		InjectionRate: 0.5,
		Seed:          3,
	}).Run()
	if res.Saturated {
		t.Fatalf("rEDKSP adaptive saturated at 50%% permutation load (lat %v)", res.SampleLatencies)
	}
	if res.DeliveredRate <= 0.3 {
		t.Fatalf("delivered rate = %v", res.DeliveredRate)
	}
}

// TestSweepAndSaturation pins the contract between the two rate
// searches: SaturationThroughput's runs are Sweep's runs, field by field,
// up to and including the first saturated rate, where it stops, and the
// rate it returns is the last one before that. A run's seed depends only
// on its rate index, so Sweep over a prefix of the rates makes the same
// runs as over all of them.
func TestSweepAndSaturation(t *testing.T) {
	topo := jelly(t, 12, 8, 4, 3)
	pdb := db(topo, ksp.REDKSP, 4)
	rates := Rates(0.1, 1.0, 0.1)
	if len(rates) != 10 {
		t.Fatalf("rates = %v", rates)
	}
	for _, mech := range append(routing.Mechanisms(), routing.SP()) {
		name := mech.Name()
		cfg := Config{
			Topo:      topo,
			Paths:     pdb,
			Mechanism: mech,
			Traffic:   traffic.Uniform{N: topo.NumTerminals()},
			Seed:      17,
		}
		sat, runs := SaturationThroughput(cfg, rates)
		n := len(runs)
		if n == 0 || n > len(rates) {
			t.Fatalf("%s: %d runs over %d rates", name, n, len(rates))
		}
		sweep := Sweep(cfg, rates[:n], 2)
		for i, r := range runs {
			if !reflect.DeepEqual(r, sweep[i]) {
				t.Fatalf("%s: run at rate %.1f differs from Sweep's:\n got %+v\nwant %+v", name, rates[i], r, sweep[i])
			}
			if r.Saturated && i < n-1 {
				t.Fatalf("%s: the scan ran on past the saturated rate %.1f", name, rates[i])
			}
		}
		if !runs[n-1].Saturated {
			t.Fatalf("%s: no saturated rate up to %.1f; the test needs one", name, rates[n-1])
		}
		if n == 1 {
			t.Fatalf("%s: 10%% load saturated", name)
		}
		if want := rates[n-2]; sat != want {
			t.Fatalf("%s: saturation throughput %v, want %v", name, sat, want)
		}
		// On the rates below the first saturated one the scan runs them
		// all and returns the highest.
		below := rates[:n-1]
		if sat, again := SaturationThroughput(cfg, below); sat != below[len(below)-1] || !reflect.DeepEqual(again, runs[:n-1]) {
			t.Fatalf("%s: over the %d unsaturated rates: throughput %v from %d runs", name, len(below), sat, len(again))
		}
	}
}

func TestDeliveredRateTracksOfferedAtLowLoad(t *testing.T) {
	topo := jelly(t, 12, 8, 4, 3)
	res := New(Config{
		Topo:          topo,
		Paths:         db(topo, ksp.REDKSP, 4),
		Mechanism:     routing.Random(),
		Traffic:       traffic.Uniform{N: topo.NumTerminals()},
		InjectionRate: 0.1,
		Seed:          23,
	}).Run()
	if res.DeliveredRate < 0.08 || res.DeliveredRate > 0.12 {
		t.Fatalf("delivered rate %v far from offered 0.1", res.DeliveredRate)
	}
}

func TestConfigValidation(t *testing.T) {
	topo := lineTopo(2, 1)
	ok := Config{
		Topo:      topo,
		Paths:     db(topo, ksp.KSP, 1),
		Mechanism: routing.SP(),
		Traffic:   traffic.Uniform{N: 2},
	}
	for _, rate := range []float64{1.5, -0.1, math.NaN()} {
		bad := ok
		bad.InjectionRate = rate
		if _, err := NewSim(bad); err == nil {
			t.Errorf("injection rate %v accepted", rate)
		}
	}
	missing := ok
	missing.Paths = nil
	mustPanic(t, func() { New(missing) })
}

func TestRoundRobinCyclesPaths(t *testing.T) {
	// A 4-cycle has two paths between opposite corners; round-robin must
	// alternate them strictly.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(3, 0)
	topo := &jellyfish.Topology{G: b.Graph(), N: 4, X: 3, Y: 2}
	pdb := paths.BuildAllPairs(topo.G, ksp.Config{Alg: ksp.EDKSP, K: 2}, 1, 0)
	s := New(Config{
		Topo:      topo,
		Paths:     pdb,
		Mechanism: routing.RoundRobin(),
		Traffic:   traffic.Uniform{N: 4},
		NumVCs:    6,
	})
	p1, _ := s.choosePath(0, 2)
	p2, _ := s.choosePath(0, 2)
	p3, _ := s.choosePath(0, 2)
	if p1.Equal(p2) {
		t.Fatalf("round robin repeated the path: %v", p1)
	}
	if !p1.Equal(p3) {
		t.Fatalf("round robin did not cycle back: %v vs %v", p1, p3)
	}
}

func TestKSPAdaptiveAvoidsCongestedPath(t *testing.T) {
	// Manually congest one path's first link and check KSP-adaptive picks
	// the other one (two candidates, deterministic comparison).
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(3, 0)
	topo := &jellyfish.Topology{G: b.Graph(), N: 4, X: 3, Y: 2}
	pdb := paths.BuildAllPairs(topo.G, ksp.Config{Alg: ksp.EDKSP, K: 2}, 1, 0)
	s := New(Config{
		Topo:      topo,
		Paths:     pdb,
		Mechanism: routing.KSPAdaptive(),
		Traffic:   traffic.Uniform{N: 4},
		NumVCs:    6,
	})
	// Congest link 0->1.
	id := topo.G.LinkID(0, 1)
	s.occ[id] = 30
	for trial := 0; trial < 20; trial++ {
		p, _ := s.choosePath(0, 2)
		if p[1] == 1 {
			t.Fatalf("adaptive chose the congested path %v", p)
		}
	}
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}

// TestRatesEndpointExact pins the valid sweeps rate by rate, as Rates
// computes them by index: the Figure 9 sweep, whose last rate must not
// pass 1.0, a short one, a one-point sweep, an empty one and the longest
// sweep allowed.
func TestRatesEndpointExact(t *testing.T) {
	for _, c := range []struct {
		start, stop, step float64
		n                 int
	}{
		{0.05, 1.0, 0.05, 20},
		{0.1, 0.3, 0.1, 3},
		{0.1, 0.1, 0.05, 1},
		{0.5, 0.4, 0.05, 0},
		{0, 1, 1e-4, maxRateSteps + 1},
	} {
		rs := Rates(c.start, c.stop, c.step)
		if len(rs) != c.n {
			t.Fatalf("Rates(%g, %g, %g) has %d rates, want %d", c.start, c.stop, c.step, len(rs), c.n)
		}
		for i, r := range rs {
			if want := min(c.start+float64(i)*c.step, c.stop); r != want {
				t.Fatalf("Rates(%g, %g, %g)[%d] = %v, want %v", c.start, c.stop, c.step, i, r, want)
			}
		}
	}
}

// TestRatesRejectsUnboundedSweeps checks that every argument that would
// make an endless or oversized sweep is refused by ValidateRates with an
// error naming it, and makes Rates panic instead of looping.
func TestRatesRejectsUnboundedSweeps(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	for _, c := range []struct {
		start, stop, step float64
		names             string
	}{
		{0.05, 1, 0, "step 0 "},
		{0.05, 1, -0.05, "step -0.05 "},
		{0.05, 1, nan, "step NaN "},
		{0.05, 1, inf, "step +Inf "},
		{nan, 1, 0.05, "start NaN "},
		{-inf, 1, 0.05, "start -Inf "},
		{0.05, nan, 0.05, "stop NaN "},
		{0.05, inf, 0.05, "stop +Inf "},
		{0.05, 1, 1e-300, "step 1e-300 "},
		{0.05, 1, 1e-9, "step 1e-09 "},
		{0.5, 0.5, 1e-14, "step 1e-14 "}, // tolerance at stop: 10^5 points
		{1e30, 1e30, 1, "step 1 "},       // below start's rounding granularity
	} {
		err := ValidateRates(c.start, c.stop, c.step)
		if err == nil || !strings.Contains(err.Error(), c.names) || !strings.Contains(err.Error(), "out of range") {
			t.Fatalf("ValidateRates(%g, %g, %g) = %v, want an out-of-range error naming %q",
				c.start, c.stop, c.step, err, c.names)
		}
		func() {
			defer func() {
				if r := recover(); r == nil || fmt.Sprint(r) != err.Error() {
					t.Fatalf("Rates(%g, %g, %g) panicked with %v, want %v", c.start, c.stop, c.step, r, err)
				}
			}()
			Rates(c.start, c.stop, c.step)
		}()
	}
}

func TestLatencyPercentiles(t *testing.T) {
	topo := jelly(t, 12, 8, 4, 3)
	res := New(Config{
		Topo:          topo,
		Paths:         db(topo, ksp.REDKSP, 4),
		Mechanism:     routing.Random(),
		Traffic:       traffic.Uniform{N: topo.NumTerminals()},
		InjectionRate: 0.2,
		Seed:          31,
	}).Run()
	if res.P50 <= 0 || res.P95 < res.P50 || res.P99 < res.P95 {
		t.Fatalf("percentiles not ordered: p50=%v p95=%v p99=%v", res.P50, res.P95, res.P99)
	}
	// The median must bracket the mean loosely at low load.
	if res.P50 > res.AvgLatency*3 {
		t.Fatalf("p50 %v wildly above mean %v", res.P50, res.AvgLatency)
	}
}

func TestUGALBiasExtremes(t *testing.T) {
	// With an enormous MIN bias, biased KSP-UGAL degenerates to SP: same
	// delivered results under a fixed seed.
	topo := jelly(t, 12, 8, 4, 3)
	pdb := db(topo, ksp.KSP, 4)
	run := func(mech routing.Mechanism) Result {
		return New(Config{
			Topo:          topo,
			Paths:         pdb,
			Mechanism:     mech,
			Traffic:       traffic.Uniform{N: topo.NumTerminals()},
			InjectionRate: 0.15,
			Seed:          77,
		}).Run()
	}
	// Routing decisions match SP exactly, but the mechanism consumes extra
	// RNG draws (sampling the unused alternative), desynchronizing traffic
	// generation — so compare statistically, not bit-for-bit.
	biased := run(routing.KSPUGALBiased(1 << 30))
	sp := run(routing.SP())
	if diff := biased.AvgLatency - sp.AvgLatency; diff > sp.AvgLatency*0.05 || diff < -sp.AvgLatency*0.05 {
		t.Fatalf("infinitely biased KSP-UGAL (%v) far from SP (%v)",
			biased.AvgLatency, sp.AvgLatency)
	}
	if biased.MaxHops != sp.MaxHops {
		t.Fatalf("biased KSP-UGAL used different path lengths: %d vs %d",
			biased.MaxHops, sp.MaxHops)
	}
	// Bias 0 must match the unbiased constructor.
	a, b := run(routing.KSPUGALBiased(0)), run(routing.KSPUGAL())
	if a.AvgLatency != b.AvgLatency {
		t.Fatal("bias 0 differs from unbiased KSP-UGAL")
	}
	c, d := run(routing.VanillaUGALBiased(0)), run(routing.VanillaUGAL())
	if c.AvgLatency != d.AvgLatency {
		t.Fatal("bias 0 differs from unbiased UGAL")
	}
}

func TestAvgHopsReported(t *testing.T) {
	topo := jelly(t, 12, 8, 4, 3)
	res := New(Config{
		Topo:          topo,
		Paths:         db(topo, ksp.KSP, 2),
		Mechanism:     routing.SP(),
		Traffic:       traffic.Uniform{N: topo.NumTerminals()},
		InjectionRate: 0.1,
		Seed:          41,
	}).Run()
	if res.AvgHops <= 0 || res.AvgHops > float64(res.MaxHops) {
		t.Fatalf("avg hops = %v (max %d)", res.AvgHops, res.MaxHops)
	}
	// With SP routing the average hop count approximates the average
	// shortest path length of the switch graph.
	m := graph.ComputeMetrics(topo.G, 0)
	if res.AvgHops < m.AvgShortestPath*0.7 || res.AvgHops > m.AvgShortestPath*1.3 {
		t.Fatalf("avg hops %v far from avg shortest path %v", res.AvgHops, m.AvgShortestPath)
	}
}

func TestNoLivelockUnderSustainedOverload(t *testing.T) {
	// Deadlock-freedom stress: at injection rate 1.0 for a long horizon,
	// delivery must keep making progress (VC-per-hop ordering guarantees
	// the network never wedges).
	topo := jelly(t, 12, 8, 4, 3)
	s := New(Config{
		Topo:          topo,
		Paths:         db(topo, ksp.REDKSP, 4),
		Mechanism:     routing.KSPAdaptive(),
		Traffic:       traffic.Uniform{N: topo.NumTerminals()},
		InjectionRate: 1.0,
		Seed:          43,
	})
	var lastDelivered int64
	for epoch := 0; epoch < 10; epoch++ {
		s.Step(1000)
		_, delivered, _ := s.Counts()
		if delivered <= lastDelivered {
			t.Fatalf("no progress in epoch %d: delivered stuck at %d", epoch, delivered)
		}
		lastDelivered = delivered
	}
	if got := s.QueuedPackets(); got != func() int64 { _, _, f := s.Counts(); return f }() {
		t.Fatal("conservation violated under overload")
	}
}

func TestSaturationLatencyOnlyMode(t *testing.T) {
	// Pick a regime where the throughput criterion fires but the latency
	// criterion does not: SP routing on shift traffic at a load past its
	// capacity but with stable delivered-packet latency.
	topo := jelly(t, 12, 9, 6, 3)
	pdb := db(topo, ksp.KSP, 4)
	base := Config{
		Topo:          topo,
		Paths:         pdb,
		Mechanism:     routing.SP(),
		Traffic:       traffic.NewFixedSampler(traffic.RandomShift(topo.NumTerminals(), xrand.New(8))),
		InjectionRate: 1.0,
		Seed:          6,
	}
	both := New(base).Run()
	latOnly := base
	latOnly.SaturationLatencyOnly = true
	paper := New(latOnly).Run()
	if !both.Saturated {
		t.Skip("regime did not trigger the throughput criterion; nothing to compare")
	}
	// The latency-only run may or may not be saturated, but it must never
	// be saturated in a case the default criterion is not.
	if paper.Saturated && !both.Saturated {
		t.Fatal("latency-only mode is stricter than the default, which is impossible")
	}
	// Both modes must agree on the actual delivery numbers (the criterion
	// only affects the verdict).
	if both.DeliveredRate != paper.DeliveredRate {
		t.Fatalf("criterion changed delivery: %v vs %v", both.DeliveredRate, paper.DeliveredRate)
	}
}
