package ksp

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/jellyfish"
	"repro/internal/xrand"
)

var update = flag.Bool("update", false, "rewrite testdata/selectors_golden.json")

const selectorsGoldenFile = "testdata/selectors_golden.json"

// goldenGraph is one topology the selector golden samples pairs on.
type goldenGraph struct {
	name  string
	p     jellyfish.Params
	pairs int
}

// goldenGraphs: the paper's medium Jellyfish, and a degree-4 RRG on which
// no pair has 8 edge-disjoint paths, so every EDKSP and rEDKSP pair takes
// the Yen top-up fallback.
var goldenGraphs = []goldenGraph{
	{"RRG(720,24,19)", jellyfish.Medium, 150},
	{"RRG(40,8,4)", jellyfish.Params{N: 40, X: 8, Y: 4}, 200},
}

// selectorDigest summarizes one selector's output over a pair sample.
type selectorDigest struct {
	Pairs     int    `json:"pairs"`
	Paths     int    `json:"paths"`
	Fallbacks int    `json:"fallbacks"`
	Hash      string `json:"hash"`
}

// goldenPairs returns count ordered pairs of distinct nodes in [0, n),
// drawn from a fixed stream so every run samples the same pairs.
func goldenPairs(n, count int) [][2]graph.NodeID {
	rng := xrand.New(0x676f6c64) // "gold"
	out := make([][2]graph.NodeID, count)
	for i := range out {
		s, d := rng.TwoDistinct(n)
		out[i] = [2]graph.NodeID{graph.NodeID(s), graph.NodeID(d)}
	}
	return out
}

// goldenSeed is the base seed of one selector's computer.
func goldenSeed(alg Algorithm) uint64 { return xrand.Mix64(uint64(alg)) }

// digestSelector selects k=8 paths for every pair with one computer,
// reseeding it per pair from (seed, src<<32|dst) as paths.DB does. The
// FNV-1a hash covers each pair's endpoints and path set, then the next
// word of the computer's RNG, so it pins how much randomness each pair
// consumed as well as what it chose.
func digestSelector(g *graph.Graph, alg Algorithm, pairs [][2]graph.NodeID) selectorDigest {
	seed := goldenSeed(alg)
	rng := xrand.New(seed)
	c := NewComputer(g, Config{Alg: alg, K: 8}, rng)
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	d := selectorDigest{Pairs: len(pairs)}
	for _, pr := range pairs {
		src, dst := pr[0], pr[1]
		c.Reseed(seed, uint64(uint32(src))<<32|uint64(uint32(dst)))
		ps := c.Paths(src, dst)
		put(uint64(uint32(src))<<32 | uint64(uint32(dst)))
		put(uint64(len(ps)))
		for _, p := range ps {
			put(uint64(len(p)))
			for _, u := range p {
				put(uint64(uint32(u)))
			}
		}
		put(rng.Uint64())
		d.Paths += len(ps)
	}
	d.Fallbacks = c.Fallbacks()
	d.Hash = fmt.Sprintf("%016x", h.Sum64())
	return d
}

// TestSelectorGolden pins the exact path sets and per-pair RNG use of all
// four selectors at k=8 on sampled pairs of two topologies. Engine or
// selector speedups must leave every digest unchanged; a change that
// chooses different paths is a new selector. Regenerate with
// `go test ./internal/ksp -run SelectorGolden -update` only when a
// behavior change is intended.
func TestSelectorGolden(t *testing.T) {
	got := map[string]selectorDigest{}
	for _, gg := range goldenGraphs {
		topo, err := jellyfish.New(gg.p, xrand.New(1))
		if err != nil {
			t.Fatal(err)
		}
		pairs := goldenPairs(topo.G.NumNodes(), gg.pairs)
		for _, alg := range Algorithms {
			got[gg.name+"/"+alg.String()] = digestSelector(topo.G, alg, pairs)
		}
	}
	for _, alg := range []Algorithm{EDKSP, REDKSP} {
		if key := "RRG(40,8,4)/" + alg.String(); got[key].Fallbacks == 0 {
			t.Errorf("%s: no pair took the Yen top-up fallback", key)
		}
	}

	if *update {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		buf = append(buf, '\n')
		if err := os.MkdirAll(filepath.Dir(selectorsGoldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(selectorsGoldenFile, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d digests", selectorsGoldenFile, len(got))
		return
	}

	buf, err := os.ReadFile(selectorsGoldenFile)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	var want map[string]selectorDigest
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	for key, w := range want {
		if g, ok := got[key]; !ok {
			t.Errorf("%s: in the golden but not computed", key)
		} else if !reflect.DeepEqual(g, w) {
			t.Errorf("%s: got %+v, golden %+v", key, g, w)
		}
	}
	for key := range got {
		if _, ok := want[key]; !ok {
			t.Errorf("%s: computed but missing from the golden", key)
		}
	}
}
