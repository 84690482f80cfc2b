package graph

import (
	"math"
	"slices"
	"testing"

	"repro/internal/xrand"
)

func TestShortestPathLine(t *testing.T) {
	g := line(6)
	e := NewSPEngine(g, TieDeterministic, nil)
	p, ok := e.ShortestPath(0, 5)
	if !ok || p.Hops() != 5 {
		t.Fatalf("path = %v ok=%v", p, ok)
	}
	if !p.Equal(Path{0, 1, 2, 3, 4, 5}) {
		t.Fatalf("unexpected path %v", p)
	}
}

func TestShortestPathSelf(t *testing.T) {
	e := NewSPEngine(line(3), TieDeterministic, nil)
	p, ok := e.ShortestPath(2, 2)
	if !ok || !p.Equal(Path{2}) {
		t.Fatalf("self path = %v ok=%v", p, ok)
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	e := NewSPEngine(b.Graph(), TieDeterministic, nil)
	if _, ok := e.ShortestPath(0, 3); ok {
		t.Fatal("found a path between components")
	}
}

func TestDeterministicTieBreakPrefersSmallIDs(t *testing.T) {
	// Diamond: 0-1-3 and 0-2-3 are both shortest; deterministic mode must
	// choose the path through node 1 every time.
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(1, 3)
	b.AddEdge(2, 3)
	e := NewSPEngine(b.Graph(), TieDeterministic, nil)
	for i := 0; i < 20; i++ {
		p, ok := e.ShortestPath(0, 3)
		if !ok || !p.Equal(Path{0, 1, 3}) {
			t.Fatalf("deterministic tie-break picked %v", p)
		}
	}
}

func TestRandomTieBreakCoversAlternatives(t *testing.T) {
	// Same diamond: random mode must eventually use both middles.
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(1, 3)
	b.AddEdge(2, 3)
	e := NewSPEngine(b.Graph(), TieRandom, xrand.New(1))
	seen := map[NodeID]int{}
	for i := 0; i < 400; i++ {
		p, ok := e.ShortestPath(0, 3)
		if !ok || p.Hops() != 2 {
			t.Fatalf("bad path %v", p)
		}
		seen[p[1]]++
	}
	if seen[1] < 100 || seen[2] < 100 {
		t.Fatalf("tie-break badly skewed: %v", seen)
	}
}

func TestRandomTieBreakSameLengthAsDeterministic(t *testing.T) {
	g := randomGraph(xrand.New(77), 60, 0.08)
	det := NewSPEngine(g, TieDeterministic, nil)
	rnd := NewSPEngine(g, TieRandom, xrand.New(3))
	for s := NodeID(0); s < 60; s += 7 {
		for d := NodeID(0); d < 60; d += 5 {
			pd, okd := det.ShortestPath(s, d)
			pr, okr := rnd.ShortestPath(s, d)
			if okd != okr {
				t.Fatalf("reachability differs for %d->%d", s, d)
			}
			if okd && pd.Hops() != pr.Hops() {
				t.Fatalf("length differs for %d->%d: %d vs %d", s, d, pd.Hops(), pr.Hops())
			}
			if okr && (!pr.ValidIn(g) || !pr.Loopless()) {
				t.Fatalf("random path invalid: %v", pr)
			}
		}
	}
}

// TestRandomSearchFullFrontier checks the randomized engine against the
// oracle search (refBans.search) where one level's frontier scans nearly
// every directed link, or keeps nearly every arc a level can keep: search
// keeps the arcs from the frontier to nodes undiscovered when the level
// began, in an array of one entry per directed link, so a level keeps at
// most one arc per undirected edge. The graphs are K_16, banned in the
// second run along a perfect matching, so that a matched pair is two hops
// apart and its second level scans up to 195 of the 240 links; and the
// join of a 12-leaf star with a K_6, every star node adjacent to every
// clique node (105 edges), where a search from one leaf to another keeps
// 77 arcs at its second level, 66 of them ties, and one from the hub to
// the leaf whose link to it is banned scans 167 of the 210 links. Every
// ordered pair is searched, once without bans and once under node,
// directed-link and undirected-link bans; the engine must return the
// oracle's path and leave its RNG where the oracle leaves its own.
func TestRandomSearchFullFrontier(t *testing.T) {
	join := NewBuilder(19) // hub 0, leaves 1..12, clique 13..18
	for c := NodeID(13); c <= 18; c++ {
		for u := NodeID(0); u < c; u++ {
			join.AddEdge(u, c)
		}
	}
	for leaf := NodeID(1); leaf <= 12; leaf++ {
		join.AddEdge(0, leaf)
	}
	for _, tc := range []struct {
		name       string
		g          *Graph
		node       NodeID      // banned in the second run
		undirected [][2]NodeID // banned in the second run
		directed   [][2]NodeID // banned in the second run
	}{
		{"K16", complete(16), 7,
			[][2]NodeID{{0, 1}, {2, 3}, {4, 5}, {6, 7}, {8, 9}, {10, 11}, {12, 13}, {14, 15}}, nil},
		{"star joined to K6", join.Graph(), 15, [][2]NodeID{{0, 1}}, [][2]NodeID{{13, 2}, {3, 14}}},
	} {
		for _, banned := range []bool{false, true} {
			rng, refRNG := xrand.New(7), xrand.New(7)
			e := NewSPEngine(tc.g, TieRandom, rng)
			ref := newRefBans()
			if banned {
				e.BanNode(tc.node)
				ref.nodes[tc.node] = true
				for _, l := range tc.undirected {
					e.BanUndirectedEdge(l[0], l[1])
					ref.links[l] = true
					ref.links[[2]NodeID{l[1], l[0]}] = true
				}
				for _, l := range tc.directed {
					e.BanDirectedEdge(l[0], l[1])
					ref.links[l] = true
				}
			}
			n := NodeID(tc.g.NumNodes())
			for src := NodeID(0); src < n; src++ {
				for dst := NodeID(0); dst < n; dst++ {
					got, ok := e.ShortestPath(src, dst)
					want, wantOK := ref.search(tc.g, TieRandom, refRNG, src, dst)
					if ok != wantOK || !got.Equal(want) {
						t.Fatalf("%s, banned %v: %d->%d = %v, %v; oracle %v, %v",
							tc.name, banned, src, dst, got, ok, want, wantOK)
					}
					if a, b := rng.Uint64(), refRNG.Uint64(); a != b {
						t.Fatalf("%s, banned %v: after %d->%d the engine's next word is %x, the oracle's %x",
							tc.name, banned, src, dst, a, b)
					}
				}
			}
		}
	}
}

// TestRandomSearchBottomUp checks the randomized engine against the
// oracle search (refBans.search) on random regular graphs of the shapes of
// the paper's RRG(720,24,19) and RRG(200,12,6) (19-regular on 720 nodes,
// 6-regular on 200), where a search's last level, with a frontier of
// hundreds of nodes and a few undiscovered ones, runs bottom-up (see
// keepBottomUp). Each sampled pair is searched the way the selectors
// search it: by Remove-Find, banning each path's links in both
// directions, up to 8 paths; by Yen's first round, a spur search from
// each node of the first path with the root's nodes and the path's next
// link banned; and once under a random quarter of the directed links and
// a twentieth of the nodes banned, so that bottom-up levels meet links
// banned in one direction only. Every query must return the oracle's path
// and leave the engine's RNG where the oracle leaves its own.
func TestRandomSearchBottomUp(t *testing.T) {
	for _, tc := range []struct {
		name  string
		g     *Graph
		pairs int
	}{
		{"RRG(720,24,19)", randomRegular(xrand.New(1), 720, 19), 30},
		{"RRG(200,12,6)", randomRegular(xrand.New(2), 200, 6), 60},
	} {
		rng, refRNG, pick := xrand.New(3), xrand.New(3), xrand.New(4)
		e := NewSPEngine(tc.g, TieRandom, rng)
		var ref *refBans
		clearBans := func() {
			e.ClearBans()
			ref = newRefBans()
		}
		banLink := func(u, v NodeID) {
			e.BanDirectedEdge(u, v)
			ref.links[[2]NodeID{u, v}] = true
		}
		banNode := func(u NodeID) {
			e.BanNode(u)
			ref.nodes[u] = true
		}
		query := func(how string, src, dst NodeID) Path {
			got, ok := e.ShortestPath(src, dst)
			want, wantOK := ref.search(tc.g, TieRandom, refRNG, src, dst)
			if ok != wantOK || !got.Equal(want) {
				t.Fatalf("%s, %s: %d->%d = %v, %v; oracle %v, %v", tc.name, how, src, dst, got, ok, want, wantOK)
			}
			if a, b := rng.Uint64(), refRNG.Uint64(); a != b {
				t.Fatalf("%s, %s: after %d->%d the engine's next word is %x, the oracle's %x", tc.name, how, src, dst, a, b)
			}
			return got
		}
		n := tc.g.NumNodes()
		for range tc.pairs {
			s, d := pick.TwoDistinct(n)
			src, dst := NodeID(s), NodeID(d)
			clearBans()
			var first Path
			for range 8 {
				p := query("Remove-Find", src, dst)
				if p == nil {
					break
				}
				if first == nil {
					first = p
				}
				for i := 0; i+1 < len(p); i++ {
					banLink(p[i], p[i+1])
					banLink(p[i+1], p[i])
				}
			}
			for j := 0; j+1 < len(first); j++ {
				clearBans()
				banLink(first[j], first[j+1])
				for _, u := range first[:j] {
					banNode(u)
				}
				query("Yen", first[j], dst)
			}
			clearBans()
			for l := range int32(tc.g.NumDirectedLinks()) {
				if pick.IntN(4) == 0 {
					banLink(tc.g.LinkEndpoints(l))
				}
			}
			for u := range NodeID(n) {
				if u != src && u != dst && pick.IntN(20) == 0 {
					banNode(u)
				}
			}
			query("random bans", src, dst)
		}
	}
}

// TestAllDistancesBottomUp checks AllDistancesFrom against the queue BFS
// (refBans.bfs) from every source, on graphs where its levels run
// bottom-up, stopping each undiscovered node at its first frontier
// neighbour: a random 19-regular graph on 720 nodes, the shape of
// RRG(720,24,19), without bans and under node, directed-link and
// undirected-link bans, so that a scan's last levels find a few nodes
// left behind the bans; and K_12 with a path of 6 nodes hanging from node
// 0, numbered outward from 12, where a scan from any other clique node
// meets the whole path undiscovered behind a frontier of 11 clique
// nodes, and each path node is one level further than the one before it,
// which the same bottom-up level discovers first. The second run of the
// path bans the link 0→12 but not 12→0, so that the bottom-up level must
// read the ban of the link into the node it scans from.
func TestAllDistancesBottomUp(t *testing.T) {
	tail := NewBuilder(18)
	for u := NodeID(0); u < 12; u++ {
		for v := u + 1; v < 12; v++ {
			tail.AddEdge(u, v)
		}
	}
	tail.AddEdge(0, 12)
	for u := NodeID(12); u < 17; u++ {
		tail.AddEdge(u, u+1)
	}
	rrg := randomRegular(xrand.New(5), 720, 19)
	pick := xrand.New(6)
	for _, tc := range []struct {
		name string
		g    *Graph
		ban  func(e *SPEngine, ref *refBans)
	}{
		{"RRG(720,24,19)", rrg, func(*SPEngine, *refBans) {}},
		{"RRG(720,24,19), banned", rrg, func(e *SPEngine, ref *refBans) {
			for l := range int32(rrg.NumDirectedLinks()) {
				u, v := rrg.LinkEndpoints(l)
				switch pick.IntN(16) {
				case 0:
					e.BanDirectedEdge(u, v)
					ref.links[[2]NodeID{u, v}] = true
				case 1:
					e.BanUndirectedEdge(u, v)
					ref.links[[2]NodeID{u, v}] = true
					ref.links[[2]NodeID{v, u}] = true
				}
			}
			for u := range NodeID(rrg.NumNodes()) {
				if pick.IntN(20) == 0 {
					e.BanNode(u)
					ref.nodes[u] = true
				}
			}
		}},
		{"K12 with a pendant path", tail.Graph(), func(*SPEngine, *refBans) {}},
		{"K12 with a pendant path, 0->12 banned", tail.Graph(), func(e *SPEngine, ref *refBans) {
			e.BanDirectedEdge(0, 12)
			ref.links[[2]NodeID{0, 12}] = true
		}},
	} {
		e := NewSPEngine(tc.g, TieDeterministic, nil)
		ref := newRefBans()
		tc.ban(e, ref)
		dist := make([]int32, tc.g.NumNodes())
		for src := range NodeID(tc.g.NumNodes()) {
			e.AllDistancesFrom(src, dist)
			if _, want := ref.bfs(tc.g, src); !slices.Equal(dist, want) {
				t.Fatalf("%s: distances from %d = %v, oracle %v", tc.name, src, dist, want)
			}
		}
	}
}

func TestNodeBans(t *testing.T) {
	// Cycle of 6: banning node 1 forces the long way around from 0 to 2.
	e := NewSPEngine(cycle(6), TieDeterministic, nil)
	e.BanNode(1)
	p, ok := e.ShortestPath(0, 2)
	if !ok || p.Hops() != 4 {
		t.Fatalf("banned search returned %v", p)
	}
	e.ClearBans()
	p, ok = e.ShortestPath(0, 2)
	if !ok || p.Hops() != 2 {
		t.Fatalf("bans did not clear: %v", p)
	}
}

func TestBannedEndpointsFail(t *testing.T) {
	e := NewSPEngine(line(3), TieDeterministic, nil)
	e.BanNode(0)
	if _, ok := e.ShortestPath(0, 2); ok {
		t.Fatal("search from banned source succeeded")
	}
	e.ClearBans()
	e.BanNode(2)
	if _, ok := e.ShortestPath(0, 2); ok {
		t.Fatal("search to banned destination succeeded")
	}
}

func TestDirectedEdgeBans(t *testing.T) {
	e := NewSPEngine(cycle(4), TieDeterministic, nil)
	e.BanDirectedEdge(0, 1)
	p, ok := e.ShortestPath(0, 1)
	if !ok || p.Hops() != 3 {
		t.Fatalf("directed ban ignored: %v", p)
	}
	// The reverse direction must still work.
	p, ok = e.ShortestPath(1, 0)
	if !ok || p.Hops() != 1 {
		t.Fatalf("reverse direction banned too: %v", p)
	}
}

func TestUndirectedEdgeBans(t *testing.T) {
	e := NewSPEngine(cycle(4), TieDeterministic, nil)
	e.BanUndirectedEdge(0, 1)
	if p, _ := e.ShortestPath(1, 0); p.Hops() != 3 {
		t.Fatalf("undirected ban not applied both ways: %v", p)
	}
}

func TestEngineReuseManyQueries(t *testing.T) {
	g := randomGraph(xrand.New(10), 50, 0.1)
	e := NewSPEngine(g, TieDeterministic, nil)
	ref := NewSPEngine(g, TieDeterministic, nil)
	// Interleave banned and unbanned queries; results of unbanned queries
	// must match a fresh engine every time.
	for i := 0; i < 200; i++ {
		s, d := NodeID(i%50), NodeID((i*7+3)%50)
		if i%3 == 0 {
			e.BanNode(NodeID((i * 11) % 50))
			e.ShortestPath(s, d)
			e.ClearBans()
		}
		p1, ok1 := e.ShortestPath(s, d)
		p2, ok2 := ref.ShortestPath(s, d)
		if ok1 != ok2 || (ok1 && !p1.Equal(p2)) {
			t.Fatalf("engine state leaked at query %d: %v vs %v", i, p1, p2)
		}
	}
}

func TestAllDistancesFrom(t *testing.T) {
	g := cycle(8)
	e := NewSPEngine(g, TieDeterministic, nil)
	dist := make([]int32, 8)
	e.AllDistancesFrom(0, dist)
	want := []int32{0, 1, 2, 3, 4, 3, 2, 1}
	for i := range want {
		if dist[i] != want[i] {
			t.Fatalf("dist = %v, want %v", dist, want)
		}
	}
}

func TestAllDistancesRespectBans(t *testing.T) {
	g := line(5)
	e := NewSPEngine(g, TieDeterministic, nil)
	e.BanNode(2)
	dist := make([]int32, 5)
	e.AllDistancesFrom(0, dist)
	if dist[1] != 1 || dist[3] != -1 || dist[4] != -1 {
		t.Fatalf("banned distances wrong: %v", dist)
	}
}

func TestBFSMatchesDijkstraOnUnitWeights(t *testing.T) {
	g := randomGraph(xrand.New(99), 80, 0.06)
	e := NewSPEngine(g, TieDeterministic, nil)
	for s := NodeID(0); s < 80; s += 11 {
		for d := NodeID(0); d < 80; d += 13 {
			pb, okb := e.ShortestPath(s, d)
			pd, cost, okd := Dijkstra(g, s, d, UnitWeights, TieDeterministic, nil)
			if okb != okd {
				t.Fatalf("reachability mismatch %d->%d", s, d)
			}
			if okb {
				if pb.Hops() != pd.Hops() || float64(pb.Hops()) != cost {
					t.Fatalf("length mismatch %d->%d: bfs %d dijkstra %d cost %v",
						s, d, pb.Hops(), pd.Hops(), cost)
				}
			}
		}
	}
}

func TestDijkstraWeighted(t *testing.T) {
	// Triangle with a heavy direct edge: 0-2 costs 10, 0-1-2 costs 2.
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 2)
	g := b.Graph()
	w := func(u, v NodeID) float64 {
		if (u == 0 && v == 2) || (u == 2 && v == 0) {
			return 10
		}
		return 1
	}
	p, cost, ok := Dijkstra(g, 0, 2, w, TieDeterministic, nil)
	if !ok || cost != 2 || !p.Equal(Path{0, 1, 2}) {
		t.Fatalf("weighted dijkstra = %v cost %v", p, cost)
	}
}

func TestDijkstraRandomTiesValid(t *testing.T) {
	g := randomGraph(xrand.New(12), 40, 0.15)
	rng := xrand.New(4)
	for i := 0; i < 50; i++ {
		s, d := NodeID(rng.IntN(40)), NodeID(rng.IntN(40))
		p, cost, ok := Dijkstra(g, s, d, UnitWeights, TieRandom, rng)
		if !ok {
			continue
		}
		if !p.ValidIn(g) || !p.Loopless() || float64(p.Hops()) != cost {
			t.Fatalf("random dijkstra invalid: %v cost %v", p, cost)
		}
	}
}

func TestComputeMetricsCycle(t *testing.T) {
	m := ComputeMetrics(cycle(8), 2)
	if !m.Connected || m.Diameter != 4 {
		t.Fatalf("metrics = %+v", m)
	}
	// Ring of 8: distances from any node are 1,2,3,4,3,2,1 → mean 16/7.
	want := 16.0 / 7.0
	if diff := m.AvgShortestPath - want; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("avg = %v, want %v", m.AvgShortestPath, want)
	}
}

func TestComputeMetricsDisconnected(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	m := ComputeMetrics(b.Graph(), 0)
	if m.Connected {
		t.Fatal("disconnected graph reported connected")
	}
}

func TestComputeMetricsComplete(t *testing.T) {
	m := ComputeMetrics(complete(10), 4)
	if !m.Connected || m.Diameter != 1 || m.AvgShortestPath != 1 {
		t.Fatalf("metrics = %+v", m)
	}
}

// TestEngineCountersWrap runs one script of bans and searches on an engine
// whose search and ban counters are at 2^32-1 and on a fresh engine, which
// must answer identically. Across the wrap, neither a zero counter
// (matching every untouched mark) nor a stale mark left 2^32 epochs
// earlier may make a node or link read as banned, or a node as already
// discovered. The stale case first leaves marks at the counters' first
// values, as a long-lived engine's first calls would: bans on query
// endpoints and on every link of node 1, and an all-nodes search.
func TestEngineCountersWrap(t *testing.T) {
	g := randomGraph(xrand.New(31), 40, 0.12)
	dist, want := make([]int32, 40), make([]int32, 40)
	stale := func(e *SPEngine) {
		e.ClearBans()
		for _, u := range []NodeID{5, 30, 39} {
			e.BanNode(u)
		}
		for _, v := range g.Neighbors(1) {
			e.BanUndirectedEdge(1, v)
		}
		e.ClearBans()
		e.AllDistancesFrom(0, dist)
	}
	for _, tie := range []TieBreak{TieDeterministic, TieRandom} {
		for _, warm := range []func(*SPEngine){func(*SPEngine) {}, stale} {
			oldRNG, freshRNG := xrand.New(5), xrand.New(5)
			old := NewSPEngine(g, tie, oldRNG)
			fresh := NewSPEngine(g, tie, freshRNG)
			warm(old)
			old.epoch = math.MaxUint32
			old.banCur = math.MaxUint32
			for i := NodeID(0); i < 8; i++ {
				for _, e := range []*SPEngine{old, fresh} {
					e.ClearBans()
					e.BanNode(2*i + 10)
					e.BanDirectedEdge(i, i+3)
				}
				for _, pr := range [][2]NodeID{{1, 30}, {i + 1, 39}, {3 * i, 5}, {20, i + 2}} {
					p, ok := old.ShortestPath(pr[0], pr[1])
					q, okq := fresh.ShortestPath(pr[0], pr[1])
					if ok != okq || !p.Equal(q) {
						t.Fatalf("tie %d, step %d: %d->%d = %v, %v across the wrap; fresh engine %v, %v",
							tie, i, pr[0], pr[1], p, ok, q, okq)
					}
				}
				old.AllDistancesFrom(i+1, dist)
				fresh.AllDistancesFrom(i+1, want)
				if !slices.Equal(dist, want) {
					t.Fatalf("tie %d, step %d: distances from %d = %v across the wrap; fresh engine %v",
						tie, i, i+1, dist, want)
				}
			}
			if old.epoch > 100 || old.banCur > 100 {
				t.Fatalf("counters did not wrap: epoch %d, banCur %d", old.epoch, old.banCur)
			}
		}
	}
}
