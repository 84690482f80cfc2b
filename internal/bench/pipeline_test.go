package bench

import (
	"testing"

	"repro/internal/appsim"
	"repro/internal/exp"
	"repro/internal/flitsim"
	"repro/internal/jellyfish"
	"repro/internal/ksp"
	"repro/internal/par"
	"repro/internal/routing"
	"repro/internal/traffic"
)

// benchSmall is the root benchmark suite's 24-switch topology.
var benchSmall = jellyfish.Params{N: 24, X: 18, Y: 12}

// TestPipelinesMatchExp pins that the benchmark measures what jfflit and
// jfapp run: the composed Figure 9 and Table V pipelines reproduce
// exp.FlitSaturation and exp.AppCommTimes cell for cell.
func TestPipelinesMatchExp(t *testing.T) {
	const seed, patterns = 3, 2
	rates := []float64{0.05, 0.45}
	want, err := exp.FlitSaturation(exp.FlitConfig{Params: benchSmall, Pattern: "shift", Rates: rates},
		exp.Scale{Seed: seed, K: 8, PatternSamples: patterns})
	if err != nil {
		t.Fatal(err)
	}
	f, err := newFig9(newTracer(false, 0), nil, benchSmall, seed, patterns, rates)
	if err != nil {
		t.Fatal(err)
	}
	jobs := patterns * len(ksp.Algorithms) * len(fig9Mechs)
	sat := make([]float64, jobs)
	par.For(jobs, 0, func(n int) {
		job := fig9Order(n, patterns)
		sat[job.index()], _ = f.saturation(job, func(c flitsim.Config) (flitsim.Result, bool) {
			return flitsim.New(c).Run(), true
		})
	})
	for ai := range ksp.Algorithms {
		for mi := range fig9Mechs {
			var sum float64
			for pi := 0; pi < patterns; pi++ {
				sum += sat[fig9Job{pi, ai, mi}.index()]
			}
			if got := sum / patterns; got != want.Mean[ai][mi] {
				t.Errorf("fig9 %s/%s: saturation %v, exp.FlitSaturation %v", ksp.Algorithms[ai], fig9Mechs[mi].Name(), got, want.Mean[ai][mi])
			}
		}
	}

	stencils := []traffic.StencilKind{traffic.Stencil2DNN, traffic.Stencil3DNNDiag}
	const bytes = 1_000_000
	app, err := exp.AppCommTimes(exp.AppConfig{Params: benchSmall, Mapping: "linear", BytesPerRank: bytes,
		Mechanism: routing.KSPAdaptive(), Stencils: stencils}, exp.Scale{Seed: seed, K: 8})
	if err != nil {
		t.Fatal(err)
	}
	tv, err := newTableV(newTracer(false, 0), nil, benchSmall, seed, stencils, bytes)
	if err != nil {
		t.Fatal(err)
	}
	for si := range stencils {
		for ai := range tableVSelectors {
			res, err := appsim.Run(tv.config(si, ai))
			if err != nil {
				t.Fatal(err)
			}
			if res.Seconds != app.Seconds[si][ai] {
				t.Errorf("tablev %s/%s: %v s, exp.AppCommTimes %v s", stencils[si], tableVSelectors[ai], res.Seconds, app.Seconds[si][ai])
			}
		}
	}
}

// TestFig9OrderCoversEveryJob checks the run order is a permutation of
// exp.FlitSaturation's jobs whose every 20 consecutive jobs hold each
// (selector, mechanism) cell once.
func TestFig9OrderCoversEveryJob(t *testing.T) {
	const patterns = 10
	cells := len(ksp.Algorithms) * len(fig9Mechs)
	seen := map[int]bool{}
	for n := 0; n < patterns*cells; n++ {
		seen[fig9Order(n, patterns).index()] = true
	}
	if len(seen) != patterns*cells {
		t.Errorf("%d distinct jobs in one pass, want %d", len(seen), patterns*cells)
	}
	for start := 0; start < patterns*cells; start += cells {
		cell := map[[2]int]bool{}
		for n := start; n < start+cells; n++ {
			j := fig9Order(n, patterns)
			cell[[2]int{j.ai, j.mi}] = true
		}
		if len(cell) != cells {
			t.Errorf("jobs %d..%d cover %d cells, want %d", start, start+cells-1, len(cell), cells)
		}
	}
}
