package exp

import (
	"testing"

	"repro/internal/jellyfish"
	"repro/internal/paths"
	"repro/internal/routing"
	"repro/internal/traffic"
	"repro/internal/xrand"
)

// flowPairs returns the distinct non-self switch pairs at the ends of the
// terminal flows that each yields.
func flowPairs(topo *jellyfish.Topology, each func(add func(src, dst int))) map[paths.Pair]bool {
	seen := map[paths.Pair]bool{}
	each(func(src, dst int) {
		if s, d := topo.SwitchOf(src), topo.SwitchOf(dst); s != d {
			seen[paths.Pair{Src: s, Dst: d}] = true
		}
	})
	return seen
}

// checkReads requires got to list exactly the pairs of want, each once,
// in ascending (src, dst) order.
func checkReads(t *testing.T, got []paths.Pair, want map[paths.Pair]bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("run reads %d pairs, want %d", len(got), len(want))
	}
	for i, p := range got {
		if !want[p] {
			t.Fatalf("run reads %d->%d, which it should not", p.Src, p.Dst)
		}
		if i > 0 && (p.Src < got[i-1].Src || p.Src == got[i-1].Src && p.Dst <= got[i-1].Dst) {
			t.Fatalf("pairs out of order at %d->%d", p.Src, p.Dst)
		}
	}
}

// modelFlows yields the flows of instances 0..samples-1 of the permutation
// and shift patterns on topology sample 0.
func modelFlows(sc Scale, nTerms int) func(add func(src, dst int)) {
	return func(add func(src, dst int)) {
		for _, gen := range []func(int, *xrand.RNG) traffic.Pattern{traffic.RandomPermutation, traffic.RandomShift} {
			for inst := 0; inst < sc.PatternSamples; inst++ {
				for _, f := range gen(nTerms, sc.patternSeed(0, inst)).Flows {
					add(f.Src, f.Dst)
				}
			}
		}
	}
}

// TestRunReadSets pins the switch pairs each kind of run builds its path
// DB over: a fixed-pattern model or flit run and a linear stencil replay
// read the distinct non-self switch pairs of their flows; a run with a
// non-minimal mechanism, uniform traffic or a fault schedule can read any
// pair and builds all 1,260 pairs of the small topology; Figure 5's
// medium inputs build 23,950. A DB missing a pair the run reads would
// panic in the run, which the golden and the other tests of this package
// would show.
func TestRunReadSets(t *testing.T) {
	sc, _ := Scale{PatternSamples: 3, Seed: 1}.withDefaults()
	topo, err := sc.buildTopo(jellyfish.Small, 0)
	if err != nil {
		t.Fatal(err)
	}
	nTerms := topo.NumTerminals()
	all := flowPairs(topo, func(add func(src, dst int)) {
		for s := 0; s < nTerms; s++ {
			for d := 0; d < nTerms; d++ {
				add(s, d)
			}
		}
	})
	if len(all) != 1260 {
		t.Fatalf("small has %d ordered switch pairs, want 1260", len(all))
	}

	t.Run("model/permutation,shift", func(t *testing.T) {
		got, err := ModelConfig{Params: jellyfish.Small, Patterns: []string{"permutation", "shift"}}.reads(sc, topo, 0)
		if err != nil {
			t.Fatal(err)
		}
		checkReads(t, got, flowPairs(topo, modelFlows(sc, nTerms)))
	})

	t.Run("app/linear", func(t *testing.T) {
		cfg := AppConfig{Params: jellyfish.Small, Mapping: "linear", BytesPerRank: 1500,
			Stencils: traffic.StencilKinds, Mechanism: routing.KSPAdaptive()}
		checkReads(t, cfg.reads(sc, topo, 0, false), flowPairs(topo, func(add func(src, dst int)) {
			for _, kind := range traffic.StencilKinds {
				w := traffic.Stencil(traffic.StencilConfig{Kind: kind, Ranks: nTerms, TotalBytes: 1500})
				for _, f := range w.Apply(traffic.LinearMapping(nTerms)) {
					add(f.Src, f.Dst)
				}
			}
		}))
	})

	shift := flowPairs(topo, func(add func(src, dst int)) {
		for _, f := range traffic.RandomShift(nTerms, sc.patternSeed(0, 0)).Flows {
			add(f.Src, f.Dst)
		}
	})
	for _, c := range []struct {
		name    string
		pattern string
		mech    routing.Mechanism
		faulted bool
		want    map[paths.Pair]bool
	}{
		{"flit/shift", "shift", routing.KSPAdaptive(), false, shift},
		{"flit/ugal", "shift", routing.VanillaUGAL(), false, all},
		{"flit/uniform", "uniform", routing.KSPAdaptive(), false, all},
		{"flit/faulted", "shift", routing.KSPAdaptive(), true, all},
	} {
		t.Run(c.name, func(t *testing.T) {
			got, err := FlitConfig{Pattern: c.pattern}.reads(sc, topo, 0, 1, []routing.Mechanism{c.mech}, c.faulted)
			if err != nil {
				t.Fatal(err)
			}
			checkReads(t, got, c.want)
		})
	}

	t.Run("app/faulted", func(t *testing.T) {
		cfg := AppConfig{Params: jellyfish.Small, Mapping: "linear", BytesPerRank: 1500,
			Stencils: []traffic.StencilKind{traffic.Stencil2DNN}}
		checkReads(t, cfg.reads(sc, topo, 0, true), all)
	})

	t.Run("model/medium/figure5", func(t *testing.T) {
		msc, _ := Scale{PatternSamples: 5, Seed: 1}.withDefaults()
		medium, err := msc.buildTopo(jellyfish.Medium, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ModelConfig{Params: jellyfish.Medium, Patterns: []string{"permutation", "shift"}}.reads(msc, medium, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 23950 {
			t.Fatalf("Figure 5's medium inputs read %d pairs, want 23950", len(got))
		}
		checkReads(t, got, flowPairs(medium, modelFlows(msc, medium.NumTerminals())))
	})
}
