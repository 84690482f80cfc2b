package bench

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"testing"

	"repro/internal/appsim"
	"repro/internal/exp"
	"repro/internal/flitsim"
	"repro/internal/jellyfish"
	"repro/internal/ksp"
	"repro/internal/par"
	"repro/internal/paths"
	"repro/internal/routing"
	"repro/internal/seeds"
	"repro/internal/serve"
	"repro/internal/serve/client"
	"repro/internal/xrand"
)

var update = flag.Bool("update", false, "recompute testdata/reference.json (takes about ten minutes)")

// TestReference, run with -update, recomputes the seed-1 references from
// the composed pipelines, cross-checks the simulator ones against the
// experiment harness at full size, and writes testdata/reference.json.
func TestReference(t *testing.T) {
	if !*update {
		t.Skip("run with -update to recompute the references")
	}
	var ref refData
	size := Full

	f, err := newFig9(newTracer(false, 0), nil, jellyfish.Small, 1, size.PatternSamples, size.FlitRates)
	if err != nil {
		t.Fatal(err)
	}
	jobs := size.PatternSamples * len(ksp.Algorithms) * len(fig9Mechs)
	ref.Fig9Saturation = make([]float64, jobs)
	par.For(jobs, 0, func(n int) {
		job := fig9Order(n, size.PatternSamples)
		ref.Fig9Saturation[job.index()], _ = f.saturation(job, func(c flitsim.Config) (flitsim.Result, bool) {
			return flitsim.New(c).Run(), true
		})
	})
	want, err := exp.FlitSaturation(exp.FlitConfig{Params: jellyfish.Small, Pattern: "shift"},
		exp.Scale{Seed: 1, K: 8, PatternSamples: size.PatternSamples})
	if err != nil {
		t.Fatal(err)
	}
	for ai := range ksp.Algorithms {
		for mi := range fig9Mechs {
			var sum float64
			for pi := 0; pi < size.PatternSamples; pi++ {
				sum += ref.Fig9Saturation[fig9Job{pi, ai, mi}.index()]
			}
			if got := sum / float64(size.PatternSamples); got != want.Mean[ai][mi] {
				t.Errorf("fig9 %s/%s: %v, exp.FlitSaturation %v", ksp.Algorithms[ai], fig9Mechs[mi].Name(), got, want.Mean[ai][mi])
			}
		}
	}

	tv, err := newTableV(newTracer(false, 0), nil, jellyfish.Small, 1, size.Stencils, size.BytesPerRank)
	if err != nil {
		t.Fatal(err)
	}
	app, err := exp.AppCommTimes(exp.AppConfig{Params: jellyfish.Small, Mapping: "linear", Mechanism: routing.KSPAdaptive()},
		exp.Scale{Seed: 1, K: 8})
	if err != nil {
		t.Fatal(err)
	}
	for si := range size.Stencils {
		for ai := range tableVSelectors {
			res, err := appsim.Run(tv.config(si, ai))
			if err != nil {
				t.Fatal(err)
			}
			if res.Seconds != app.Seconds[si][ai] {
				t.Errorf("tablev %d/%d: %v s, exp.AppCommTimes %v s", si, ai, res.Seconds, app.Seconds[si][ai])
			}
			ref.TableVCycles = append(ref.TableVCycles, res.Cycles)
		}
	}

	topo, err := jellyfish.New(jellyfish.Medium, seeds.TopoRNG(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	pairs := roundPairs(topo.G.NumNodes(), 1, 0, size.RoundPairs)
	ref.PathsRound0 = map[string]qualityRow{}
	for _, alg := range pathsSelectors {
		seed := seeds.PathSeed(1, 0, alg)
		db := paths.Build(topo.G, ksp.Config{Alg: alg, K: 8}, seed, pairs, 0)
		q := paths.AnalyzeDB(db, pairs, 0)
		ref.PathsRound0[alg.String()] = qualityRow{q.Pairs, q.AvgLen, q.DisjointFraction, q.MaxShare, q.AvgPaths, q.Fallbacks}
	}

	r := &run{opts: Options{Seed: 1, Jfserve: buildJfserve(t)}}
	d, err := r.startDaemon(0)
	if err != nil {
		t.Fatal(err)
	}
	small, err := jellyfish.New(jellyfish.Small, seeds.TopoRNG(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	env := &serveEnv{g: small.G, key: d.key}
	cl, err := client.DialBinary(t.Context(), "unix", d.addr)
	if err != nil {
		t.Fatal(err)
	}
	var bad int64
	ref.SweepRouted, bad, ref.SweepFNV, err = sweepOnce(t.Context(), cl, env, serve.SweepParams{Count: size.SweepPairs, Seed: xrand.Mix64(1 ^ 0x73777065)})
	cl.Close()
	if _, _, serr := d.stop(); err == nil {
		err = serr
	}
	if err != nil || bad != 0 {
		t.Fatalf("sweep: %d invalid routes: %v", bad, err)
	}

	b, err := json.MarshalIndent(&ref, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("testdata/reference.json", append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestReferenceFigure9Table pins that jobs 0-19 of the reference are the
// one-pattern-sample Figure 9 table exp.FlitSaturation prints at seed 1.
func TestReferenceFigure9Table(t *testing.T) {
	want := "[[0.25 0.3 0.35 0.65 0.7] [0.45 0.45 0.5 0.7 0.75] [0.4 0.4 0.35 0.65 0.75] [0.5 0.5 0.5 0.7 0.75]]"
	var rows [][]string
	for ai := range ksp.Algorithms {
		var row []string
		for mi := range fig9Mechs {
			row = append(row, strconv.FormatFloat(reference.Fig9Saturation[fig9Job{0, ai, mi}.index()], 'f', -1, 32))
		}
		rows = append(rows, row)
	}
	if got := fmt.Sprint(rows); got != want {
		t.Errorf("reference Figure 9 table %s, want %s", got, want)
	}
}
