package ksp

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/jellyfish"
	"repro/internal/xrand"
)

var benchSink []graph.Path

// BenchmarkSelectors times every selector at k=8 on RRG(720,24,19), one
// pair per op, cycling through a fixed sample of 256 pairs and reseeding
// the computer per pair as paths.DB does. ns/op is the time to select one
// pair's set and allocs/op its allocations. jfbench's paths-medium times
// only KSP and rEDKSP; this covers the other two selectors too.
//
//	go test ./internal/ksp -run '^$' -bench Selectors -benchmem -count 5
func BenchmarkSelectors(b *testing.B) {
	topo, err := jellyfish.New(jellyfish.Medium, xrand.New(1))
	if err != nil {
		b.Fatal(err)
	}
	pairs := goldenPairs(topo.G.NumNodes(), 256)
	for _, alg := range Algorithms {
		b.Run(alg.String(), func(b *testing.B) {
			seed := goldenSeed(alg)
			c := NewComputer(topo.G, Config{Alg: alg, K: 8}, xrand.New(seed))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pr := pairs[i%len(pairs)]
				c.Reseed(seed, uint64(uint32(pr[0]))<<32|uint64(uint32(pr[1])))
				benchSink = c.Paths(pr[0], pr[1])
			}
		})
	}
}
