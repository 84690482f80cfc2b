package serve_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/serve"
	"repro/internal/serve/client"
	"repro/internal/xrand"
)

// TestStripedStatisticalEquivalence checks that sharding a topology's
// mutable routing state across stripes does not change what the daemon
// answers, statistically: a single-stripe server and an 8-stripe server
// fed the same seeded pair stream must produce near-identical
// candidate-index and hop-count distributions. Individual choices DO
// differ (each stripe draws from its own seeds.StripeRNG stream and
// feeds its own estimator), so the comparison is distributional: L1
// distance of the normalized histograms, at three load levels, for both
// adaptive mechanisms.
func TestStripedStatisticalEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("routes tens of thousands of pairs")
	}
	mechanisms := []string{"ksp-adaptive", "ugal"}
	loads := []int{1000, 4000, 10000}

	for _, mech := range mechanisms {
		t.Run(mech, func(t *testing.T) {
			single, singleSock := startServer(t, serve.Options{Stripes: 1})
			striped, stripedSock := startServer(t, serve.Options{Stripes: 8})
			_, _ = single, striped

			params := serve.TopoParams{Topo: "small", K: 4, Seed: 3,
				Mechanism: mech, Estimator: "link-load"}
			cs, key := dialAndLoad(t, singleSock, params)
			cm, key2 := dialAndLoad(t, stripedSock, params)
			if key != key2 {
				t.Fatalf("same params resolved to different keys: %q vs %q", key, key2)
			}

			for _, load := range loads {
				t.Run(fmt.Sprintf("load-%d", load), func(t *testing.T) {
					pairs := sweepPairs(uint64(load)*7919+11, 36, load)
					idx1, hops1 := routeHistograms(t, cs, key, pairs)
					idx2, hops2 := routeHistograms(t, cm, key, pairs)
					if d := histL1(idx1, idx2); d > 0.15 {
						t.Errorf("candidate-index distributions diverge: L1 %.3f > 0.15\n single  %v\n striped %v",
							d, idx1, idx2)
					}
					if d := histL1(hops1, hops2); d > 0.15 {
						t.Errorf("hop-count distributions diverge: L1 %.3f > 0.15\n single  %v\n striped %v",
							d, hops1, hops2)
					}
				})
			}
		})
	}
}

// dialAndLoad opens a binary client to sock and loads params,
// returning the client and the resolved topology key.
func dialAndLoad(t *testing.T, sock string, params serve.TopoParams) (*client.Client, string) {
	t.Helper()
	c, err := client.DialBinary(bg, "unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	res, err := c.TopoLoad(bg, params)
	if err != nil {
		t.Fatal(err)
	}
	return c, res.Key
}

// sweepPairs generates n seeded (src, dst != src) pairs over switches
// [0, nsw) — the identical stream both servers route.
func sweepPairs(seed uint64, nsw, n int) [][2]int32 {
	rng := xrand.NewPair(seed, 0x73747270) // "strp"
	pairs := make([][2]int32, n)
	for i := range pairs {
		src := int32(rng.Uint64() % uint64(nsw))
		dst := int32(rng.Uint64() % uint64(nsw-1))
		if dst >= src {
			dst++
		}
		pairs[i] = [2]int32{src, dst}
	}
	return pairs
}

// routeHistograms batches pairs through c and histograms the answers:
// chosen candidate index (UGAL's composed detours land on -1) and hop
// count. Every pair must route — the small topology stores all ordered
// pairs.
func routeHistograms(t *testing.T, c *client.Client, key string, pairs [][2]int32) (idx, hops map[int]int) {
	t.Helper()
	idx, hops = map[int]int{}, map[int]int{}
	for off := 0; off < len(pairs); off += 1000 {
		end := min(off+1000, len(pairs))
		res, err := c.RoutesBatch(bg, key, pairs[off:end])
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range res.Entries {
			if e.Route == nil {
				t.Fatalf("pair %v answered %q, want a route", pairs[off+i], e.Err)
			}
			idx[e.Route.Index]++
			hops[e.Route.Hops]++
		}
	}
	return idx, hops
}

// histL1 is the L1 distance between two count histograms after
// normalizing each to a probability distribution: 0 = identical,
// 2 = disjoint support.
func histL1(a, b map[int]int) float64 {
	na, nb := 0, 0
	for _, v := range a {
		na += v
	}
	for _, v := range b {
		nb += v
	}
	if na == 0 || nb == 0 {
		return 2
	}
	d := 0.0
	keys := map[int]bool{}
	for k := range a {
		keys[k] = true
	}
	for k := range b {
		keys[k] = true
	}
	for k := range keys {
		pa := float64(a[k]) / float64(na)
		pb := float64(b[k]) / float64(nb)
		if pa > pb {
			d += pa - pb
		} else {
			d += pb - pa
		}
	}
	return d
}

// TestConcurrentBatchObserve checks that no observation is lost or
// misplaced when concurrent batches feed striped link-load estimators.
// Four binary connections send routes-batch frames at once to a
// 2-stripe topology, together staying under the 4,096 observations
// after which a stripe's estimator halves its counts. Afterwards every
// directed link's count, read on the stripe owning its source switch,
// must equal the number of answered routes crossing it, and so the
// counts sum to the answered routes' hops. Under make race-serve this
// is also the race gate of the observation path.
func TestConcurrentBatchObserve(t *testing.T) {
	const conns, frames, batch = 4, 4, 128
	srv, sock := startServer(t, serve.Options{Stripes: 2})
	topo, err := srv.LoadTopology(serve.TopoParams{Topo: "small", Mechanism: "ksp-adaptive", Estimator: "link-load"})
	if err != nil {
		t.Fatal(err)
	}
	answers := make([][]serve.BatchEntry, conns)
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := client.DialBinary(bg, "unix", sock)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			pairs := sweepPairs(uint64(i)+1, topo.Switches, frames*batch)
			for f := 0; f < frames; f++ {
				res, err := c.RoutesBatch(bg, topo.Key, pairs[f*batch:(f+1)*batch])
				if err != nil || res.Routed != batch {
					t.Errorf("connection %d frame %d: routed %d of %d: %v", i, f, res.Routed, batch, err)
					return
				}
				answers[i] = append(answers[i], res.Entries...)
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	crossed := map[[2]int32]int{}
	hops := 0
	for _, entries := range answers {
		for _, e := range entries {
			p := e.Route.Path
			for j := 0; j+1 < len(p); j++ {
				crossed[[2]int32{p[j], p[j+1]}]++
			}
			hops += e.Route.Hops
		}
	}
	var perStripe [2]int
	sum := 0
	for u := int32(0); u < int32(topo.Switches); u++ {
		for v := int32(0); v < int32(topo.Switches); v++ {
			if u == v {
				continue
			}
			count, stripe, ok := srv.LinkLoad(topo.Key, u, v)
			if !ok {
				t.Fatal("topology is not served by a link-load estimator")
			}
			if want := crossed[[2]int32{u, v}]; count != want {
				t.Errorf("link %d->%d counts %d on stripe %d, answered routes cross it %d times", u, v, count, stripe, want)
			}
			perStripe[stripe] += crossed[[2]int32{u, v}]
			sum += count
		}
	}
	for s, n := range perStripe {
		if n >= 4096 {
			t.Fatalf("stripe %d saw %d observations, past the 4,096 that trigger decay", s, n)
		}
	}
	if sum != hops {
		t.Fatalf("link counts sum to %d, answered routes have %d hops", sum, hops)
	}
	t.Logf("%d hops observed, %v per stripe", hops, perStripe)
}
