package exp

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/flitsim"
	"repro/internal/jellyfish"
	"repro/internal/ksp"
	"repro/internal/routing"
	"repro/internal/stats"
	"repro/internal/traffic"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_results.json")

const goldenFile = "testdata/golden_results.json"

// TestResultsGolden pins the numbers of every experiment entry point that
// computes some, on the configurations the other tests of this package
// run, and the String and CSV renderings of every table the package
// draws. Each result is printed with %+v, whose floats are the shortest
// decimal that parses back to the same bits, so an equal string means a
// bit-identical result. Rewrite with -update.
func TestResultsGolden(t *testing.T) {
	got := map[string]string{}
	put := func(name string, err error, vs ...any) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name] = fmt.Sprintf("%+v", vs)
	}
	tables := func(name string, ts ...*stats.Table) {
		for i, tb := range ts {
			key := fmt.Sprintf("table/%s/%d", name, i)
			got[key+"/String"] = tb.String()
			got[key+"/CSV"] = tb.CSV()
		}
	}

	mt, err := ModelThroughput(ModelConfig{Params: tiny, RandomX: 5, IncludeSP: true}, tinyScale())
	put("ModelThroughput/all-patterns", err, mt.Mean)
	tables("ModelThroughput", mt.Table("Model"))
	mt, err = ModelThroughput(ModelConfig{Params: tiny, Patterns: []string{"shift"}, IncludeSP: true},
		Scale{TopoSamples: 2, PatternSamples: 4, K: 4, Seed: 5})
	put("ModelThroughput/shift/2-topologies", err, mt.Mean)

	sat, err := FlitSaturation(FlitConfig{Params: tiny, Pattern: "permutation", Rates: flitsim.Rates(0.2, 1.0, 0.2)},
		Scale{TopoSamples: 1, PatternSamples: 2, K: 4, Seed: 7, Workers: 4})
	put("FlitSaturation/permutation", err, sat.Mean)
	tables("FlitSaturation", sat.Table("Saturation"))

	curve, err := FlitLatencyCurve(FlitConfig{Params: tiny, Pattern: "uniform", Rates: []float64{0.1, 0.5, 1.0}},
		routing.KSPAdaptive(), tinyScale())
	put("FlitLatencyCurve/uniform", err, curve.Latency)
	tables("FlitLatencyCurve", curve.Table("Latency"))

	imb, err := LoadImbalance(tiny, tinyScale())
	put("LoadImbalance", err, imb.Stats)
	tables("LoadImbalance", imb.Table("Imbalance"))

	val, err := ValidateModel(tiny, tinyScale())
	put("ValidateModel", err, val.ModelMean, val.FairMean)
	tables("ValidateModel", val.Table("Validate"))

	ks, err := AblationKSweep(tiny, []int{1, 2, 4}, tinyScale())
	put("AblationKSweep", err, ks.Mean)
	tables("AblationKSweep", ks.Table("K sweep"))

	bias, err := AblationUGALBias(tiny, []int{0, 1000000}, []float64{0.2, 0.4, 0.6}, tinyScale())
	put("AblationUGALBias", err, bias.Sat)
	tables("AblationUGALBias", bias.Table("Bias"))

	for _, mapping := range []string{"linear", "random"} {
		app, err := AppCommTimes(AppConfig{Params: tiny, Mapping: mapping, BytesPerRank: 100 * 1500,
			Mechanism: routing.KSPAdaptive()}, tinyScale())
		put("AppCommTimes/"+mapping, err, app.Seconds)
		tables("AppCommTimes/"+mapping, app.Table("Table V"))
	}

	fr, err := FaultRun(FaultRunConfig{Params: tiny, FailedLinks: []int{0, 3}},
		Scale{TopoSamples: 1, PatternSamples: 1, K: 4, Seed: 3, Workers: 8})
	put("FaultRun", err, fr.Delivered, fr.Dropped)
	tables("FaultRun", fr.Tables("Fault run")...)

	sc := tinyScale()
	sc.PairSample = 40
	res, err := FaultResilience(tiny, []int{0, 5, 20}, sc)
	put("FaultResilience/40-pairs", err, res.Survive, res.MeanSurvivingPaths)
	tables("FaultResilience", res.Table("Survival"), res.PathsTable("Surviving paths"))

	rows, err := TableI([]jellyfish.Params{tiny}, tinyScale())
	put("TableI", err, rows)
	tables("TableI", RenderTableI(rows))

	props, err := PathProps([]jellyfish.Params{tiny}, ksp.Algorithms, tinyScale())
	put("PathProps", err, props.Q)
	tables("PathProps", props.TableII(), props.TableIII(), props.TableIV())

	dis, err := DisjointExistence(tiny, []int{2, 4, 6}, sc)
	put("DisjointExistence", err, dis.Pairs, dis.MinDisjoint, dis.MeetsK)
	tables("DisjointExistence", dis.Table("Disjoint"))

	scaling, err := ScalingStudy([]jellyfish.Params{tiny}, tinyScale())
	put("ScalingStudy", err, scaling)
	tables("ScalingStudy", RenderScaling(scaling))

	flit, _, _, err := FlitTelemetryRun(FlitTelemetryConfig{Params: tiny, Selector: ksp.REDKSP,
		Pattern: "uniform", Rate: 0.3}, tinyScale())
	put("FlitTelemetryRun", err, flit)

	app, _, _, err := AppTelemetryRun(AppTelemetryConfig{Params: tiny, Selector: ksp.RKSP,
		Stencil: traffic.Stencil2DNN, Mapping: "linear", BytesPerRank: 10 * 1500}, tinyScale())
	put("AppTelemetryRun", err, app)

	if *updateGolden {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d results", goldenFile, len(got))
		return
	}
	buf, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(want))
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if g, ok := got[name]; !ok {
			t.Errorf("%s: in the golden, not run", name)
		} else if g != want[name] {
			t.Errorf("%s drifted:\n got %s\nwant %s", name, g, want[name])
		}
	}
	if len(got) != len(want) {
		t.Errorf("golden has %d results, the test ran %d", len(want), len(got))
	}
}
