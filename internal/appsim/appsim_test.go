package appsim

import (
	"testing"

	"repro/internal/jellyfish"
	"repro/internal/ksp"
	"repro/internal/paths"
	"repro/internal/routing"
	"repro/internal/traffic"
	"repro/internal/xrand"
)

func jelly(t testing.TB, n, x, y int, seed uint64) *jellyfish.Topology {
	t.Helper()
	topo, err := jellyfish.New(jellyfish.Params{N: n, X: x, Y: y}, xrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func pdb(topo *jellyfish.Topology, alg ksp.Algorithm, k int) *paths.DB {
	return paths.NewDB(topo.G, ksp.Config{Alg: alg, K: k}, 1)
}

func TestSingleFlowSerializationBound(t *testing.T) {
	// One flow of exactly 100 packets over an uncontended network finishes
	// in just over 100 cycles (serialization plus a few hops of pipeline).
	topo := jelly(t, 8, 6, 4, 1)
	cfg := Config{
		Topo:        topo,
		Paths:       pdb(topo, ksp.KSP, 2),
		Mechanism:   routing.Random(),
		Flows:       []traffic.SizedFlow{{Src: 0, Dst: topo.NumTerminals() - 1, Bytes: 100 * 1500}},
		PacketBytes: 1500,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Packets != 100 {
		t.Fatalf("packets = %d", res.Packets)
	}
	if res.Cycles < 100 || res.Cycles > 120 {
		t.Fatalf("cycles = %d, want about 100-120", res.Cycles)
	}
	// 100 packets x 75ns = 7.5us serialization.
	if res.Seconds < 7.5e-6 || res.Seconds > 10e-6 {
		t.Fatalf("seconds = %v", res.Seconds)
	}
}

func TestSameSwitchFlow(t *testing.T) {
	topo := jelly(t, 8, 6, 4, 1) // 2 terminals per switch
	cfg := Config{
		Topo:      topo,
		Paths:     pdb(topo, ksp.KSP, 2),
		Mechanism: routing.Random(),
		Flows:     []traffic.SizedFlow{{Src: 0, Dst: 1, Bytes: 10 * 1500}},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Packets != 10 || res.MaxHops != 0 {
		t.Fatalf("res = %+v", res)
	}
}

func TestPartialPacketRoundsUp(t *testing.T) {
	topo := jelly(t, 8, 6, 4, 1)
	cfg := Config{
		Topo:      topo,
		Paths:     pdb(topo, ksp.KSP, 2),
		Mechanism: routing.Random(),
		Flows:     []traffic.SizedFlow{{Src: 0, Dst: 4, Bytes: 1501}},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Packets != 2 {
		t.Fatalf("packets = %d, want 2 (1501 bytes rounds up)", res.Packets)
	}
}

func TestEmptyWorkload(t *testing.T) {
	topo := jelly(t, 8, 6, 4, 1)
	res, err := Run(Config{Topo: topo, Paths: pdb(topo, ksp.KSP, 2)})
	if err != nil || res.Cycles != 0 {
		t.Fatalf("res = %+v err = %v", res, err)
	}
}

func TestMissingConfig(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

func TestStencilWorkloadCompletes(t *testing.T) {
	topo := jelly(t, 18, 8, 6, 2) // 36 terminals
	w := traffic.Stencil(traffic.StencilConfig{
		Kind: traffic.Stencil2DNN, Ranks: topo.NumTerminals(), TotalBytes: 60 * 1500,
	})
	for _, mech := range []routing.Mechanism{routing.Random(), routing.KSPAdaptive()} {
		cfg := Config{
			Topo:      topo,
			Paths:     pdb(topo, ksp.REDKSP, 4),
			Mechanism: mech,
			Flows:     w.Apply(traffic.LinearMapping(topo.NumTerminals())),
			Seed:      5,
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", mech.Name(), err)
		}
		wantPkts := int64(topo.NumTerminals()) * 60
		if res.Packets != wantPkts {
			t.Fatalf("%s: packets = %d, want %d", mech.Name(), res.Packets, wantPkts)
		}
		// Lower bound: each terminal serializes 60 packets.
		if res.Cycles < 60 {
			t.Fatalf("%s: cycles = %d below serialization bound", mech.Name(), res.Cycles)
		}
	}
}

func TestDeterminism(t *testing.T) {
	topo := jelly(t, 18, 8, 6, 2)
	w := traffic.Stencil(traffic.StencilConfig{
		Kind: traffic.Stencil2DNNDiag, Ranks: topo.NumTerminals(), TotalBytes: 30 * 1500,
	})
	run := func() Result {
		res, err := Run(Config{
			Topo:      topo,
			Paths:     paths.NewDB(topo.G, ksp.Config{Alg: ksp.REDKSP, K: 4}, 9),
			Mechanism: routing.KSPAdaptive(),
			Flows:     w.Apply(traffic.LinearMapping(topo.NumTerminals())),
			Seed:      11,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles || a.Packets != b.Packets || a.Seconds != b.Seconds || a.MaxHops != b.MaxHops {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestAdaptiveNotSlowerThanRandomOnAverage(t *testing.T) {
	// Across several seeds, KSP-adaptive should finish a contended stencil
	// no later on average than oblivious random (the paper's Table V/VI
	// direction).
	topo := jelly(t, 18, 8, 6, 2)
	w := traffic.Stencil(traffic.StencilConfig{
		Kind: traffic.Stencil2DNN, Ranks: topo.NumTerminals(), TotalBytes: 120 * 1500,
	})
	db := pdb(topo, ksp.REDKSP, 4)
	flows := w.Apply(traffic.RandomMapping(topo.NumTerminals(), xrand.New(3)))
	var sumRand, sumAda int64
	for seed := uint64(0); seed < 3; seed++ {
		for _, m := range []routing.Mechanism{routing.Random(), routing.KSPAdaptive()} {
			res, err := Run(Config{
				Topo: topo, Paths: db, Mechanism: m, Flows: flows, Seed: seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			if m.Name() == "Random" {
				sumRand += res.Cycles
			} else {
				sumAda += res.Cycles
			}
		}
	}
	if sumAda > sumRand*11/10 {
		t.Fatalf("KSP-adaptive (%d) much slower than random (%d)", sumAda, sumRand)
	}
}

func TestMaxCyclesGuard(t *testing.T) {
	topo := jelly(t, 8, 6, 4, 1)
	cfg := Config{
		Topo:      topo,
		Paths:     pdb(topo, ksp.KSP, 2),
		Mechanism: routing.Random(),
		Flows:     []traffic.SizedFlow{{Src: 0, Dst: 4, Bytes: 1000 * 1500}},
		MaxCycles: 10,
	}
	if _, err := Run(cfg); err == nil {
		t.Fatal("MaxCycles guard did not trip")
	}
}

func TestFlowCompletionTracking(t *testing.T) {
	topo := jelly(t, 8, 6, 4, 1)
	flows := []traffic.SizedFlow{
		{Src: 0, Dst: 4, Bytes: 10 * 1500},
		{Src: 2, Dst: 6, Bytes: 50 * 1500},
		{Src: 3, Dst: 3, Bytes: 1500}, // self flow: never sends
	}
	cfg := Config{
		Topo:       topo,
		Paths:      pdb(topo, ksp.KSP, 2),
		Mechanism:  routing.Random(),
		Flows:      flows,
		TrackFlows: true,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FlowCompletions) != 3 {
		t.Fatalf("completions = %v", res.FlowCompletions)
	}
	if res.FlowCompletions[2] != -1 {
		t.Fatal("self flow should have no completion")
	}
	// The 50-packet flow finishes last and bounds the run.
	if res.FlowCompletions[1] < res.FlowCompletions[0] {
		t.Fatalf("larger flow finished first: %v", res.FlowCompletions)
	}
	if res.FlowCompletions[1] >= res.Cycles {
		t.Fatalf("completion %d beyond run end %d", res.FlowCompletions[1], res.Cycles)
	}
	// Without tracking, the slice stays nil.
	cfg.TrackFlows = false
	res2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res2.FlowCompletions != nil {
		t.Fatal("tracking off but completions recorded")
	}
}

func TestSelfAndZeroByteFlowsIgnored(t *testing.T) {
	topo := jelly(t, 8, 6, 4, 1)
	res, err := Run(Config{
		Topo:      topo,
		Paths:     pdb(topo, ksp.KSP, 2),
		Mechanism: routing.Random(),
		Flows: []traffic.SizedFlow{
			{Src: 2, Dst: 2, Bytes: 1500},
			{Src: 0, Dst: 4, Bytes: 0},
		},
	})
	if err != nil || res.Packets != 0 {
		t.Fatalf("res = %+v err = %v", res, err)
	}
}

func TestOutOfRangeFlowRejected(t *testing.T) {
	topo := jelly(t, 8, 6, 4, 1)
	_, err := Run(Config{
		Topo:  topo,
		Paths: pdb(topo, ksp.KSP, 2),
		Flows: []traffic.SizedFlow{{Src: 0, Dst: 999, Bytes: 1500}},
	})
	if err == nil {
		t.Fatal("out-of-range flow accepted")
	}
}

func TestIterations(t *testing.T) {
	topo := jelly(t, 8, 6, 4, 1)
	base := Config{
		Topo:      topo,
		Paths:     pdb(topo, ksp.KSP, 2),
		Mechanism: routing.Random(),
		Flows:     []traffic.SizedFlow{{Src: 0, Dst: 4, Bytes: 20 * 1500}},
		Seed:      3,
	}
	one, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	multi := base
	multi.Iterations = 3
	multi.ComputeGap = 100
	three, err := Run(multi)
	if err != nil {
		t.Fatal(err)
	}
	if three.Packets != 3*one.Packets {
		t.Fatalf("packets = %d, want %d", three.Packets, 3*one.Packets)
	}
	// Three phases plus two compute gaps: at least 3x the single-phase
	// cycles plus 200 idle cycles.
	if three.Cycles < 3*one.Cycles+200 {
		t.Fatalf("cycles = %d, single phase was %d", three.Cycles, one.Cycles)
	}
	// And not wildly more (phases are identical and independent).
	if three.Cycles > 3*one.Cycles+200+one.Cycles {
		t.Fatalf("cycles = %d, too slow for 3 phases of %d", three.Cycles, one.Cycles)
	}
}

// TestReplayAllocsFlat pins that a replay's allocations do not grow with
// the number of packets it moves: path choice, queueing and forwarding
// allocate nothing per packet once the queues and the packet pool have
// grown, so each extra iteration may allocate at most the flow table it
// rebuilds (one list per terminal plus its flows).
func TestReplayAllocsFlat(t *testing.T) {
	topo := jelly(t, 18, 8, 6, 2)
	db := paths.BuildAllPairs(topo.G, ksp.Config{Alg: ksp.REDKSP, K: 4}, 1, 0)
	flows := traffic.Stencil(traffic.StencilConfig{
		Kind: traffic.Stencil2DNNDiag, Ranks: topo.NumTerminals(), TotalBytes: 120 * 1500,
	}).Apply(traffic.LinearMapping(topo.NumTerminals()))
	allocs := func(iterations int) float64 {
		cfg := Config{Topo: topo, Paths: db, Mechanism: routing.KSPAdaptive(), Flows: flows,
			Seed: 3, Iterations: iterations}
		return testing.AllocsPerRun(3, func() {
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	one, eight := allocs(1), allocs(8)
	perIter := (eight - one) / 7
	if bound := float64(topo.NumTerminals() + len(flows)); perIter > bound {
		t.Fatalf("each extra iteration allocates %.0f times (1 iteration: %.0f, 8: %.0f), want <= %.0f",
			perIter, one, eight, bound)
	}
}
