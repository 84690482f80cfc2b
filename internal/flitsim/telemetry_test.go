package flitsim

import (
	"math"
	"testing"

	"repro/internal/ksp"
	"repro/internal/routing"
	"repro/internal/telemetry"
	"repro/internal/traffic"
)

// TestTelemetryReconciles checks the acceptance invariant for the
// telemetry layer: the exported counters must reconcile with the run's
// aggregate Result — same delivered count on the ejection links, same
// measured mean latency in the histogram, and conservation between
// injection- and ejection-side totals.
func TestTelemetryReconciles(t *testing.T) {
	topo := jelly(t, 12, 8, 5, 3)
	col := telemetry.NewCollector()
	cfg := Config{
		Topo:          topo,
		Paths:         db(topo, ksp.REDKSP, 4),
		Mechanism:     routing.KSPAdaptive(),
		Traffic:       traffic.Uniform{N: topo.NumTerminals()},
		InjectionRate: 0.6,
		Seed:          7,
		Telemetry:     col,
	}
	sim := New(cfg)
	res := sim.Run()
	if sim.Telemetry() != col {
		t.Fatal("Telemetry() accessor does not return the attached collector")
	}

	// Delivered packets each cross exactly one ejection link.
	var ejected, injectedNet int64
	for i, li := range col.Links() {
		switch li.Kind {
		case telemetry.KindEject:
			ejected += col.Forwarded.Get(i)
		case telemetry.KindInject:
			injectedNet += col.Forwarded.Get(i)
		}
	}
	if ejected != res.Delivered {
		t.Fatalf("ejection-link flits = %d, Result.Delivered = %d", ejected, res.Delivered)
	}
	// Everything that entered the network either left or is still inside.
	if injectedNet < res.Delivered || injectedNet > res.Injected {
		t.Fatalf("injection-link flits = %d outside [Delivered=%d, Injected=%d]",
			injectedNet, res.Delivered, res.Injected)
	}

	// The latency histogram covers exactly the measured packets and
	// agrees with the aggregate mean (both are exact integer sums, so the
	// only slack is float division).
	if col.Latency.Count() == 0 {
		t.Fatal("no measured deliveries recorded")
	}
	if got, want := col.Latency.Mean(), res.AvgLatency; math.Abs(got-want) > 1e-9 {
		t.Fatalf("telemetry mean latency %v != Result.AvgLatency %v", got, want)
	}
	if got, want := col.Latency.Percentile(0.50), res.P50; got != want {
		t.Fatalf("telemetry p50 %v != Result.P50 %v", got, want)
	}

	// Per-link flit totals: every measured network hop is a forward, so
	// network forwards must be at least Delivered (paths have >= 0 hops)
	// and exactly sum(hops) + ... over all delivered plus in-flight
	// progress; check the weaker invariant that utilization is in [0,1].
	for i := range col.Links() {
		if u := col.Utilization(i); u < 0 || u > 1 {
			t.Fatalf("link %d utilization %v outside [0,1]", i, u)
		}
	}

	// Windows: one warmup boundary plus one per sample, strictly
	// increasing cycles, cumulative flits non-decreasing.
	ws := col.Windows()
	if len(ws) != 1+NumSamples {
		t.Fatalf("got %d windows, want %d", len(ws), 1+NumSamples)
	}
	for i := 1; i < len(ws); i++ {
		if ws[i].Cycle <= ws[i-1].Cycle || ws[i].Flits < ws[i-1].Flits {
			t.Fatalf("windows not monotone: %+v then %+v", ws[i-1], ws[i])
		}
	}
	// The last window's delivered count is the measured total.
	if ws[len(ws)-1].Delivered != col.Latency.Count() {
		t.Fatalf("final window delivered %d != histogram count %d",
			ws[len(ws)-1].Delivered, col.Latency.Count())
	}
}

// TestTelemetryOffIdentical checks that attaching telemetry does not
// perturb the simulation: the same seed must give bit-identical results
// with and without a collector.
func TestTelemetryOffIdentical(t *testing.T) {
	topo := jelly(t, 10, 6, 4, 5)
	base := Config{
		Topo:          topo,
		Paths:         db(topo, ksp.RKSP, 4),
		Mechanism:     routing.KSPAdaptive(),
		Traffic:       traffic.Uniform{N: topo.NumTerminals()},
		InjectionRate: 0.5,
		Seed:          11,
	}
	plain := New(base).Run()
	withTel := base
	withTel.Telemetry = telemetry.NewCollector()
	instrumented := New(withTel).Run()
	if plain.AvgLatency != instrumented.AvgLatency ||
		plain.Delivered != instrumented.Delivered ||
		plain.Injected != instrumented.Injected ||
		plain.Saturated != instrumented.Saturated {
		t.Fatalf("telemetry perturbed the run:\nplain        %+v\ninstrumented %+v", plain, instrumented)
	}
}
