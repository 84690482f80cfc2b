package graph_test

import (
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/jellyfish"
	"repro/internal/xrand"
)

var pathSink graph.Path

// BenchmarkShortestPath times one ShortestPath search on RRG(720,24,19),
// the paper's medium instance, in both tie modes, cycling through 256
// fixed pairs. "unbanned" searches each pair once, with no bans;
// "remove-find" runs Remove-Find's sequence per pair, so after each found
// path its links are banned and the pair is searched again, up to 8
// paths, before the bans are cleared for the next pair. ns/op is per
// search, ban calls included. Consecutive pairs almost never share a
// destination, so each det/unbanned search, and the first
// det/remove-find search of each pair, also builds a new ball around its
// destination (see graph.SPEngine) as far as it needs; the searches a
// selector makes for one pair share one.
//
//	go test ./internal/graph -run '^$' -bench ShortestPath -benchmem
func BenchmarkShortestPath(b *testing.B) {
	g := jellyfish.MustNew(jellyfish.Medium, xrand.New(1)).G
	rng := xrand.New(2)
	pairs := make([][2]graph.NodeID, 256)
	for i := range pairs {
		s, d := rng.TwoDistinct(g.NumNodes())
		pairs[i] = [2]graph.NodeID{graph.NodeID(s), graph.NodeID(d)}
	}
	for _, tie := range []struct {
		name string
		tie  graph.TieBreak
	}{{"det", graph.TieDeterministic}, {"random", graph.TieRandom}} {
		b.Run(tie.name+"/unbanned", func(b *testing.B) {
			e := graph.NewSPEngine(g, tie.tie, xrand.New(3))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pr := pairs[i%len(pairs)]
				pathSink, _ = e.ShortestPath(pr[0], pr[1])
			}
		})
		b.Run(tie.name+"/remove-find", func(b *testing.B) {
			e := graph.NewSPEngine(g, tie.tie, xrand.New(3))
			pair, found := 0, 0
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pr := pairs[pair]
				p, ok := e.ShortestPath(pr[0], pr[1])
				if found++; !ok || found == 8 {
					e.ClearBans()
					pair, found = (pair+1)%len(pairs), 0
					continue
				}
				for j := 0; j+1 < len(p); j++ {
					e.BanUndirectedEdge(p[j], p[j+1])
				}
				pathSink = p
			}
		})
	}
}

var metricsSink graph.Metrics

// BenchmarkMetrics times graph.ComputeMetrics, one breadth-first scan
// (AllDistancesFrom) from every node, on one worker, for each of the
// paper's three Jellyfish instances; ns/op is one whole computation, the
// cost Table I and every experiment's set-up pay.
//
//	go test ./internal/graph -run '^$' -bench Metrics -benchmem
func BenchmarkMetrics(b *testing.B) {
	for _, p := range []jellyfish.Params{jellyfish.Small, jellyfish.Medium, jellyfish.Large} {
		g := jellyfish.MustNew(p, xrand.New(1)).G
		b.Run(fmt.Sprintf("RRG(%d,%d,%d)", p.N, p.X, p.Y), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				metricsSink = graph.ComputeMetrics(g, 1)
			}
		})
	}
}
