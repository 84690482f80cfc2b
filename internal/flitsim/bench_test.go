package flitsim

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/jellyfish"
	"repro/internal/ksp"
	"repro/internal/paths"
	"repro/internal/routing"
	"repro/internal/telemetry"
	"repro/internal/traffic"
	"repro/internal/xrand"
)

// benchFlit measures one full measurement-protocol run on a small RRG
// at one offered load, with or without a telemetry collector attached,
// and reports the stepping cost per simulated cycle. Paths come from an
// all-pairs DB, as in every experiment. BenchmarkFlit's cells cover a
// nearly empty and a busy network; comparing BenchmarkFlitTelemetry
// against cycle/load=0.5 guards the claim that the nil-telemetry path
// costs nothing measurable:
//
//	go test ./internal/flitsim -run '^$' -bench Flit -benchmem
func benchFlit(b *testing.B, load float64, instrumented bool) {
	topo, err := jellyfish.New(jellyfish.Params{N: 18, X: 12, Y: 8}, xrand.New(1))
	if err != nil {
		b.Fatal(err)
	}
	pdb := paths.BuildAllPairs(topo.G, ksp.Config{Alg: ksp.REDKSP, K: 4}, 1, 0)
	var cycles int64
	var stepping time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := Config{
			Topo:          topo,
			Paths:         pdb,
			Mechanism:     routing.KSPAdaptive(),
			Traffic:       traffic.Uniform{N: topo.NumTerminals()},
			InjectionRate: load,
			Seed:          uint64(i) + 1,
		}
		if instrumented {
			cfg.Telemetry = telemetry.NewCollector()
		}
		sim := New(cfg)
		t0 := time.Now()
		sim.Run()
		stepping += time.Since(t0)
		cycles += sim.Clock()
	}
	b.ReportMetric(float64(stepping.Nanoseconds())/float64(cycles), "ns/cycle")
}

// BenchmarkFlit keeps its cycle/ prefix so earlier results still compare
// by name.
func BenchmarkFlit(b *testing.B) {
	for _, load := range []float64{0.001, 0.5} {
		b.Run(fmt.Sprintf("cycle/load=%g", load), func(b *testing.B) {
			benchFlit(b, load, false)
		})
	}
}

func BenchmarkFlitTelemetry(b *testing.B) { benchFlit(b, 0.5, true) }
