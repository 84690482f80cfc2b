package repro

import (
	"testing"

	"repro/internal/appsim"
	"repro/internal/fairshare"
	"repro/internal/flitsim"
	"repro/internal/jellyfish"
	"repro/internal/ksp"
	"repro/internal/model"
	"repro/internal/paths"
	"repro/internal/routing"
	"repro/internal/traffic"
	"repro/internal/xrand"
)

// TestEndToEndPipeline drives the whole stack on one small system and
// checks that the three evaluation methodologies — the Eq.1 throughput
// model, exact max-min fairness, and the cycle-level simulator — agree on
// the paper's headline ordering: rEDKSP(k) with KSP-adaptive routing beats
// vanilla KSP.
func TestEndToEndPipeline(t *testing.T) {
	params := jellyfish.Params{N: 16, X: 9, Y: 6}
	const k, seed = 4, 2026

	topo, err := jellyfish.New(params, xrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	dbs := map[ksp.Algorithm]*paths.DB{}
	for _, alg := range []ksp.Algorithm{ksp.KSP, ksp.REDKSP} {
		dbs[alg] = paths.BuildAllPairs(topo.G, ksp.Config{Alg: alg, K: k}, seed, 0)
	}
	nTerms := topo.NumTerminals()

	// Average the comparison over several shift patterns to avoid
	// single-instance noise.
	rng := xrand.New(7)
	var modelK, modelR, fairK, fairR float64
	const rounds = 5
	for i := 0; i < rounds; i++ {
		pat := traffic.RandomShift(nTerms, rng)
		modelK += model.Throughput(topo, dbs[ksp.KSP], pat, 0).MeanNode
		modelR += model.Throughput(topo, dbs[ksp.REDKSP], pat, 0).MeanNode
		aK, err := fairshare.Compute(topo, dbs[ksp.KSP], pat)
		if err != nil {
			t.Fatal(err)
		}
		aR, err := fairshare.Compute(topo, dbs[ksp.REDKSP], pat)
		if err != nil {
			t.Fatal(err)
		}
		fairK += aK.MeanNode
		fairR += aR.MeanNode
	}
	if modelR <= modelK {
		t.Fatalf("model: rEDKSP %v <= KSP %v", modelR/rounds, modelK/rounds)
	}
	if fairR <= fairK {
		t.Fatalf("max-min: rEDKSP %v <= KSP %v", fairR/rounds, fairK/rounds)
	}

	// Cycle-level: at a moderate load under one shift pattern, rEDKSP +
	// KSP-adaptive must deliver at least as much as vanilla KSP and not
	// saturate earlier.
	pat := traffic.RandomShift(nTerms, xrand.New(11))
	simOf := func(db *paths.DB) flitsim.Result {
		return flitsim.New(flitsim.Config{
			Topo:          topo,
			Paths:         db,
			Mechanism:     routing.KSPAdaptive(),
			Traffic:       traffic.NewFixedSampler(pat),
			InjectionRate: 0.35,
			Seed:          5,
		}).Run()
	}
	resK, resR := simOf(dbs[ksp.KSP]), simOf(dbs[ksp.REDKSP])
	if resR.Saturated && !resK.Saturated {
		t.Fatalf("rEDKSP saturated where KSP did not (lat %v vs %v)",
			resR.SampleLatencies, resK.SampleLatencies)
	}
	if resR.DeliveredRate < resK.DeliveredRate*0.95 {
		t.Fatalf("rEDKSP delivered %v, KSP %v", resR.DeliveredRate, resK.DeliveredRate)
	}

	// Application level: a stencil phase must complete no slower under
	// rEDKSP than under KSP.
	w := traffic.Stencil(traffic.StencilConfig{
		Kind: traffic.Stencil2DNNDiag, Ranks: nTerms, TotalBytes: 150 * 1500,
	})
	flows := w.Apply(traffic.LinearMapping(nTerms))
	appOf := func(db *paths.DB) appsim.Result {
		res, err := appsim.Run(appsim.Config{
			Topo:      topo,
			Paths:     db,
			Mechanism: routing.KSPAdaptive(),
			Flows:     flows,
			Seed:      9,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	appK, appR := appOf(dbs[ksp.KSP]), appOf(dbs[ksp.REDKSP])
	if appR.Cycles > appK.Cycles*11/10 {
		t.Fatalf("rEDKSP stencil %d cycles, KSP %d", appR.Cycles, appK.Cycles)
	}
}

// TestSeedReproducibility checks the repository-wide guarantee: the same
// seed reproduces identical results across independent constructions.
func TestSeedReproducibility(t *testing.T) {
	params := jellyfish.Params{N: 12, X: 9, Y: 6}
	build := func() (float64, float64) {
		topo, err := jellyfish.New(params, xrand.New(99))
		if err != nil {
			t.Fatal(err)
		}
		db := paths.BuildAllPairs(topo.G, ksp.Config{Alg: ksp.REDKSP, K: 4}, 99, 0)
		pat := traffic.RandomShift(topo.NumTerminals(), xrand.New(3))
		m := model.Throughput(topo, db, pat, 0)
		s := flitsim.New(flitsim.Config{
			Topo:          topo,
			Paths:         db,
			Mechanism:     routing.KSPAdaptive(),
			Traffic:       traffic.NewFixedSampler(pat),
			InjectionRate: 0.3,
			Seed:          4,
		}).Run()
		return m.MeanNode, s.AvgLatency
	}
	m1, l1 := build()
	m2, l2 := build()
	if m1 != m2 || l1 != l2 {
		t.Fatalf("seeded pipeline not reproducible: (%v,%v) vs (%v,%v)", m1, l1, m2, l2)
	}
}
