package flitsim

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/faults"
	"repro/internal/ksp"
	"repro/internal/routing"
	"repro/internal/traffic"
	"repro/internal/xrand"
)

// eventCfg is the shared small-topology configuration for event-mode
// tests: the golden harness's jelly(12,8,4,3) with an rEDKSP k=4 path DB.
func eventCfg(t testing.TB, load float64, seed uint64, event bool) Config {
	topo := jelly(t, 12, 8, 4, 3)
	return Config{
		Topo:          topo,
		Paths:         db(topo, ksp.REDKSP, 4),
		Mechanism:     routing.KSPAdaptive(),
		Traffic:       traffic.Uniform{N: topo.NumTerminals()},
		InjectionRate: load,
		Seed:          seed,
		EventDriven:   event,
	}
}

// TestGeometricSamplerDistribution checks the injector's inter-arrival
// sampler against the geometric law the Bernoulli scan realizes: mean
// gap 1/rate and P(gap = k) = (1-rate)^(k-1)·rate.
func TestGeometricSamplerDistribution(t *testing.T) {
	const n = 200_000
	for _, rate := range []float64{0.02, 0.1, 0.3} {
		in := &injector{rng: xrand.New(99), rate: rate, logQ: math.Log1p(-rate)}
		var sum float64
		counts := make(map[int64]int)
		for i := 0; i < n; i++ {
			g := in.gap()
			if g < 1 {
				t.Fatalf("rate %v: gap %d < 1", rate, g)
			}
			sum += float64(g)
			counts[g]++
		}
		mean, want := sum/n, 1/rate
		// 5 sigma on the sample mean: std of one gap is sqrt(1-p)/p.
		tol := 5 * math.Sqrt(1-rate) / rate / math.Sqrt(n)
		if math.Abs(mean-want) > tol {
			t.Errorf("rate %v: mean gap %v, want %v +/- %v", rate, mean, want, tol)
		}
		for k := int64(1); k <= 4; k++ {
			p := math.Pow(1-rate, float64(k-1)) * rate
			got := float64(counts[k]) / n
			ptol := 5 * math.Sqrt(p*(1-p)/n)
			if math.Abs(got-p) > ptol {
				t.Errorf("rate %v: P(gap=%d) = %v, want %v +/- %v", rate, k, got, p, ptol)
			}
		}
	}

	// Degenerate rates: 1 injects every cycle without consuming the RNG;
	// 0 never schedules anything.
	one := newInjector(3, 1, 7)
	for i := 0; i < 10; i++ {
		if g := one.gap(); g != 1 {
			t.Fatalf("rate 1: gap %d, want 1", g)
		}
	}
	if zero := newInjector(3, 0, 7); zero.nextAt() != -1 {
		t.Fatalf("rate 0: nextAt %d, want -1", zero.nextAt())
	}
}

// TestGeometricBernoulliParity holds the two injection processes
// together: (a) the sampler consumes exactly one uniform per drawn gap,
// so its RNG stream position is a pure function of the arrival count; and
// (b) over a long horizon, geometric next-arrival sampling produces the
// same arrival volume as per-cycle Bernoulli draws at the same rate,
// within independent-stream statistical error.
func TestGeometricBernoulliParity(t *testing.T) {
	for _, rate := range []float64{0.05, 0.3, 0.9} {
		for _, seed := range []uint64{3, 17} {
			// (a) exact consumption: K gaps advance the stream by exactly
			// K Float64 draws.
			const k = 1000
			in := &injector{rng: xrand.New(seed), rate: rate, logQ: math.Log1p(-rate)}
			for i := 0; i < k; i++ {
				in.gap()
			}
			ref := xrand.New(seed)
			for i := 0; i < k; i++ {
				ref.Float64()
			}
			if a, b := in.rng.Float64(), ref.Float64(); a != b {
				t.Fatalf("rate %v seed %d: sampler consumed != %d draws (next %v vs %v)",
					rate, seed, k, a, b)
			}

			// (b) arrival-volume parity over one terminal's horizon.
			const cycles = 100_000
			bern := 0
			brng := xrand.New(seed)
			for c := 0; c < cycles; c++ {
				if brng.Float64() < rate {
					bern++
				}
			}
			geo := 0
			gin := &injector{rng: xrand.New(seed ^ 0xabcdef), rate: rate, logQ: math.Log1p(-rate)}
			for at := gin.gap() - 1; at < cycles; at += gin.gap() {
				geo++
			}
			// Difference of two independent binomial-ish counts: 5 sigma.
			tol := 5 * math.Sqrt(2*cycles*rate*(1-rate))
			if d := math.Abs(float64(bern - geo)); d > tol {
				t.Errorf("rate %v seed %d: bernoulli %d vs geometric %d arrivals (tol %v)",
					rate, seed, bern, geo, tol)
			}
		}
	}
}

// TestStepContract pins Sim.Step's external contract in both modes: the
// clock advances by exactly n, and the conservation counters agree with a
// recount of every queue. Event-driven jumping must be invisible here.
func TestStepContract(t *testing.T) {
	for _, event := range []bool{false, true} {
		s := New(eventCfg(t, 0.05, 9, event))
		s.Step(137)
		if s.Clock() != 137 {
			t.Fatalf("event=%v: clock %d after Step(137)", event, s.Clock())
		}
		s.Step(1)
		s.Step(0)
		s.Step(862)
		if s.Clock() != 1000 {
			t.Fatalf("event=%v: clock %d, want 1000", event, s.Clock())
		}
		inj, del, fly := s.Counts()
		if inj == 0 || del == 0 {
			t.Fatalf("event=%v: nothing moved (injected %d delivered %d)", event, inj, del)
		}
		if inj != del+s.Dropped()+fly {
			t.Fatalf("event=%v: conservation broken: %d != %d+%d+%d", event, inj, del, s.Dropped(), fly)
		}
		if got := s.QueuedPackets(); got != fly {
			t.Fatalf("event=%v: recount %d != inFlight %d", event, got, fly)
		}
	}

	// With nothing to inject, the event-driven clock jumps straight to the
	// target: every cycle is skipped, none stepped.
	idle := eventCfg(t, 0, 42, true)
	s := New(idle)
	s.Step(5000)
	if s.Clock() != 5000 {
		t.Fatalf("idle: clock %d, want 5000", s.Clock())
	}
	if s.SkippedCycles() != 5000 {
		t.Fatalf("idle: skipped %d cycles, want 5000", s.SkippedCycles())
	}

	// At a low load the advance must actually sleep between bursts.
	low := New(eventCfg(t, 0.002, 9, true))
	low.Step(10_000)
	if low.SkippedCycles() == 0 {
		t.Fatal("low load: event-driven advance never slept")
	}
	if cyc := New(eventCfg(t, 0.002, 9, false)); func() bool { cyc.Step(100); return cyc.SkippedCycles() != 0 }() {
		t.Fatal("cycle mode reported skipped cycles")
	}
}

// TestEventCycleEquivalenceExact: when a run consumes no randomness
// outside injection timing — deterministic traffic pattern, SP routing,
// rate 1 so the geometric sampler degenerates to every-cycle arrivals —
// the event-driven run must be bit-identical to the cycle-stepped run.
func TestEventCycleEquivalenceExact(t *testing.T) {
	topo := jelly(t, 12, 8, 4, 3)
	base := Config{
		Topo:          topo,
		Paths:         db(topo, ksp.REDKSP, 4),
		Mechanism:     routing.SP(),
		Traffic:       traffic.NewFixedSampler(traffic.Shift(topo.NumTerminals(), 5)),
		InjectionRate: 1,
		Seed:          31,
		WarmupCycles:  200,
		SampleCycles:  200,
		NumSamples:    4,
	}
	cyc := base
	evt := base
	evt.EventDriven = true
	rc := New(cyc).Run()
	re := New(evt).Run()
	if !reflect.DeepEqual(rc, re) {
		t.Fatalf("deterministic run diverged across modes:\ncycle: %+v\nevent: %+v", rc, re)
	}
}

// TestEventCycleEquivalenceStatistical compares the two modes at the
// three golden loads. The injection RNG streams differ by design, so the
// comparison is statistical: same saturation verdict, and latency /
// throughput within a few percent when unsaturated.
func TestEventCycleEquivalenceStatistical(t *testing.T) {
	for _, load := range []float64{0.05, 0.30, 0.90} {
		rc := New(eventCfg(t, load, 1234, false)).Run()
		re := New(eventCfg(t, load, 1234, true)).Run()
		if rc.Saturated != re.Saturated {
			t.Errorf("load %v: saturation verdicts differ: cycle %v, event %v", load, rc.Saturated, re.Saturated)
			continue
		}
		if relDiff(rc.DeliveredRate, re.DeliveredRate) > 0.05 {
			t.Errorf("load %v: delivered rate cycle %v vs event %v", load, rc.DeliveredRate, re.DeliveredRate)
		}
		if !rc.Saturated && relDiff(rc.AvgLatency, re.AvgLatency) > 0.10 {
			t.Errorf("load %v: avg latency cycle %v vs event %v", load, rc.AvgLatency, re.AvgLatency)
		}
	}
}

func relDiff(a, b float64) float64 {
	if a == 0 && b == 0 {
		return 0
	}
	m := math.Abs(a)
	if math.Abs(b) > m {
		m = math.Abs(b)
	}
	return math.Abs(a-b) / m
}

// TestEventDrivenFaultRun exercises the fault schedule as an event
// source: a low-load event-driven run must wake for the failure burst
// (not sleep past it), keep conservation intact, and land near the
// cycle-stepped run. The name matches both the race-faults and
// race-flit-events gates, so this runs under the race detector in
// `make check`.
func TestEventDrivenFaultRun(t *testing.T) {
	topo := jelly(t, 12, 8, 4, 3)
	sched, err := faults.ParseSpec("random:2@800", topo.G, 5)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{
		Topo:          topo,
		Paths:         db(topo, ksp.REDKSP, 4),
		Mechanism:     routing.KSPAdaptive(),
		Traffic:       traffic.Uniform{N: topo.NumTerminals()},
		InjectionRate: 0.02,
		Seed:          11,
		Faults:        sched,
	}
	evt := base
	evt.EventDriven = true
	s := New(evt)
	re := s.Run()
	if re.FaultEvents == 0 {
		t.Fatal("event-driven run slept past the fault schedule")
	}
	if re.Injected != re.Delivered+re.Dropped+re.InFlight {
		t.Fatalf("conservation broken: %+v", re)
	}
	if s.SkippedCycles() == 0 {
		t.Fatal("low-load fault run never slept")
	}
	rc := New(base).Run()
	if rc.Saturated != re.Saturated {
		t.Fatalf("saturation verdicts differ: cycle %v, event %v", rc.Saturated, re.Saturated)
	}
	if relDiff(rc.DeliveredRate, re.DeliveredRate) > 0.10 {
		t.Fatalf("delivered rate cycle %v vs event %v", rc.DeliveredRate, re.DeliveredRate)
	}
}
