package appsim

import (
	"testing"

	"repro/internal/jellyfish"
	"repro/internal/ksp"
	"repro/internal/paths"
	"repro/internal/routing"
	"repro/internal/traffic"
)

// BenchmarkReplay measures one KSP-adaptive stencil replay (linear
// mapping, 240 packets per rank instead of Table V's 10,000) on
// RRG(36,24,16) over an eager rEDKSP k=8 path DB, and reports the host
// cost per simulated packet. It is the microbenchmark behind jfbench's
// tablev-linear-small workload:
//
//	go test ./internal/appsim -run '^$' -bench Replay -benchmem
func BenchmarkReplay(b *testing.B) {
	topo := jelly(b, jellyfish.Small.N, jellyfish.Small.X, jellyfish.Small.Y, 1)
	db := paths.BuildAllPairs(topo.G, ksp.Config{Alg: ksp.REDKSP, K: 8}, 1, 0)
	n := topo.NumTerminals()
	for _, kind := range []traffic.StencilKind{traffic.Stencil2DNN, traffic.Stencil2DNNDiag} {
		flows := traffic.Stencil(traffic.StencilConfig{Kind: kind, Ranks: n, TotalBytes: 240 * 1500}).
			Apply(traffic.LinearMapping(n))
		b.Run(kind.String(), func(b *testing.B) {
			var packets int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := Run(Config{Topo: topo, Paths: db, Mechanism: routing.KSPAdaptive(),
					Flows: flows, Seed: uint64(i) + 1})
				if err != nil {
					b.Fatal(err)
				}
				packets += res.Packets
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(packets), "ns/packet")
		})
	}
}
