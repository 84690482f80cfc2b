package exp

import (
	"math"
	"strings"
	"testing"

	"repro/internal/flitsim"
	"repro/internal/jellyfish"
	"repro/internal/ksp"
	"repro/internal/routing"
)

// tiny is a test-sized Jellyfish keeping the paper's ~2:1 ratio of network
// ports to terminals per switch.
var tiny = jellyfish.Params{N: 12, X: 9, Y: 6}

func tinyScale() Scale {
	return Scale{TopoSamples: 1, PatternSamples: 2, K: 4, Seed: 3, Workers: 4}
}

// TestNegativeSampleCountsRejected checks that every experiment entry
// point refuses a negative sample count with a range error, instead of
// panicking, analyzing all pairs or averaging over no samples.
func TestNegativeSampleCountsRejected(t *testing.T) {
	ps := []jellyfish.Params{tiny}
	algs := []ksp.Algorithm{ksp.KSP}
	flit := FlitConfig{Params: tiny, Pattern: "shift", Rates: []float64{0.1}}
	entries := []struct {
		name string
		run  func(Scale) error
	}{
		{"TableI", func(sc Scale) error { _, err := TableI(ps, sc); return err }},
		{"PathProps", func(sc Scale) error { _, err := PathProps(ps, algs, sc); return err }},
		{"DisjointExistence", func(sc Scale) error { _, err := DisjointExistence(tiny, []int{2}, sc); return err }},
		{"ScalingStudy", func(sc Scale) error { _, err := ScalingStudy(ps, sc); return err }},
		{"WarmPathCache", func(sc Scale) error { sc.PathCache = t.TempDir(); return WarmPathCache(ps, algs, sc) }},
		{"ModelThroughput", func(sc Scale) error {
			_, err := ModelThroughput(ModelConfig{Params: tiny, Patterns: []string{"shift"}}, sc)
			return err
		}},
		{"ValidateModel", func(sc Scale) error { _, err := ValidateModel(tiny, sc); return err }},
		{"FlitSaturation", func(sc Scale) error { _, err := FlitSaturation(flit, sc); return err }},
		{"FlitLatencyCurve", func(sc Scale) error { _, err := FlitLatencyCurve(flit, routing.KSPAdaptive(), sc); return err }},
		{"AppCommTimes", func(sc Scale) error {
			_, err := AppCommTimes(AppConfig{Params: tiny, Mapping: "linear", BytesPerRank: 1500}, sc)
			return err
		}},
		{"FaultResilience", func(sc Scale) error { _, err := FaultResilience(tiny, []int{0}, sc); return err }},
		{"FaultRun", func(sc Scale) error {
			_, err := FaultRun(FaultRunConfig{Params: tiny, FailedLinks: []int{0}}, sc)
			return err
		}},
		{"AblationKSweep", func(sc Scale) error { _, err := AblationKSweep(tiny, []int{2}, sc); return err }},
		{"AblationUGALBias", func(sc Scale) error { _, err := AblationUGALBias(tiny, []int{0}, []float64{0.1}, sc); return err }},
		{"LoadImbalance", func(sc Scale) error { _, err := LoadImbalance(tiny, sc); return err }},
		{"FlitTelemetryRun", func(sc Scale) error {
			_, _, _, err := FlitTelemetryRun(FlitTelemetryConfig{Params: tiny, Pattern: "shift", Rate: 0.1}, sc)
			return err
		}},
		{"AppTelemetryRun", func(sc Scale) error {
			_, _, _, err := AppTelemetryRun(AppTelemetryConfig{Params: tiny, Mapping: "linear", BytesPerRank: 1500}, sc)
			return err
		}},
	}
	for _, bad := range []struct {
		field string
		sc    Scale
	}{
		{"TopoSamples", Scale{TopoSamples: -1}},
		{"PatternSamples", Scale{PatternSamples: -2}},
		{"PairSample", Scale{PairSample: -5}},
	} {
		for _, e := range entries {
			t.Run(e.name+"/"+bad.field, func(t *testing.T) {
				if err := e.run(bad.sc); err == nil || !strings.Contains(err.Error(), "out of range") {
					t.Fatalf("err = %v, want a range error", err)
				}
			})
		}
	}
}

// TestOutOfRangeArgumentsRejected checks that k values, failure counts
// and Random(X) destination counts a study cannot run are refused with a
// range error before any work: k = 0 in a k sweep (which the Scale
// default would silently turn into 8), k above the 64 candidates a
// liveness mask can hold, and negative k, negative failure counts and an
// X outside [1, terminals), the default 50 on tiny's 36 terminals
// included, all of which would panic deeper down.
func TestOutOfRangeArgumentsRejected(t *testing.T) {
	randomX := func(p jellyfish.Params, x int) func() error {
		return func() error {
			_, err := ModelThroughput(ModelConfig{Params: p, Patterns: []string{"random(X)"}, RandomX: x}, tinyScale())
			return err
		}
	}
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"AblationKSweep/k=0", func() error { _, err := AblationKSweep(tiny, []int{0}, tinyScale()); return err }},
		{"AblationKSweep/k=-2", func() error { _, err := AblationKSweep(tiny, []int{-2}, tinyScale()); return err }},
		{"FaultResilience/failures=-1", func() error { _, err := FaultResilience(tiny, []int{-1}, tinyScale()); return err }},
		{"Scale.K=-1", func() error {
			_, err := ModelThroughput(ModelConfig{Params: tiny, Patterns: []string{"shift"}}, Scale{K: -1})
			return err
		}},
		{"Scale.K=65", func() error {
			_, err := ModelThroughput(ModelConfig{Params: tiny, Patterns: []string{"shift"}}, Scale{K: 65})
			return err
		}},
		{"ModelThroughput/random-x=terminals", randomX(tiny, 36)},
		{"ModelThroughput/random-x=-1", randomX(tiny, -1)},
		{"ModelThroughput/random-x=default", randomX(tiny, 0)},
		{"ModelThroughput/small/random-x=288", randomX(jellyfish.Small, 288)},
		{"ModelThroughput/all-patterns/random-x=default", func() error {
			_, err := ModelThroughput(ModelConfig{Params: tiny}, tinyScale())
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.run(); err == nil || !strings.Contains(err.Error(), "out of range") {
				t.Fatalf("err = %v, want a range error", err)
			}
		})
	}
}

func TestTableI(t *testing.T) {
	rows, err := TableI([]jellyfish.Params{tiny}, tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if r.SwitchSize != 9 || r.NumSwitches != 12 || r.NumTerminals != 36 {
		t.Fatalf("row = %+v", r)
	}
	if r.AvgShortest <= 1 || r.AvgShortest >= 3 {
		t.Fatalf("avg shortest = %v", r.AvgShortest)
	}
	out := RenderTableI(rows).String()
	if !strings.Contains(out, "RRG(12,9,6)") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestPathProps(t *testing.T) {
	res, err := PathProps([]jellyfish.Params{tiny}, ksp.Algorithms, tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Q) != 1 || len(res.Q[0]) != 4 {
		t.Fatalf("shape wrong: %+v", res.Q)
	}
	// Columns: KSP, rKSP, EDKSP, rEDKSP.
	ed, red := res.Q[0][2], res.Q[0][3]
	if ed.DisjointFraction != 1 || red.DisjointFraction != 1 {
		t.Fatalf("edge-disjoint selectors not 100%%: %v %v", ed.DisjointFraction, red.DisjointFraction)
	}
	if ed.MaxShare != 1 || red.MaxShare != 1 {
		t.Fatalf("edge-disjoint max share != 1: %d %d", ed.MaxShare, red.MaxShare)
	}
	vanilla := res.Q[0][0]
	if vanilla.MaxShare < 2 {
		t.Fatalf("vanilla KSP shows no sharing (max %d)", vanilla.MaxShare)
	}
	if ed.AvgLen+1e-9 < vanilla.AvgLen {
		t.Fatalf("EDKSP avg len %v below KSP %v", ed.AvgLen, vanilla.AvgLen)
	}
	for _, render := range []string{res.TableII().String(), res.TableIII().String(), res.TableIV().String()} {
		if !strings.Contains(render, "rEDKSP(4)") {
			t.Fatalf("render missing selector column:\n%s", render)
		}
	}
}

func TestPathPropsPairSampling(t *testing.T) {
	sc := tinyScale()
	sc.PairSample = 20
	res, err := PathProps([]jellyfish.Params{tiny}, []ksp.Algorithm{ksp.KSP}, sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Q[0][0].Pairs != 20 {
		t.Fatalf("pairs analyzed = %d, want 20", res.Q[0][0].Pairs)
	}
}

func TestModelThroughput(t *testing.T) {
	res, err := ModelThroughput(ModelConfig{
		Params:    tiny,
		RandomX:   5,
		IncludeSP: true,
	}, tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selectors) != 5 || res.Selectors[0] != "SP" {
		t.Fatalf("selectors = %v", res.Selectors)
	}
	if len(res.Mean) != 4 {
		t.Fatalf("patterns = %d", len(res.Mean))
	}
	for pi, pat := range res.Patterns {
		for si, sel := range res.Selectors {
			v := res.Mean[pi][si]
			if v <= 0 || v > 1+1e-9 || math.IsNaN(v) {
				t.Fatalf("%s/%s = %v", pat, sel, v)
			}
		}
	}
	out := res.Table("Figure X").String()
	if !strings.Contains(out, "all-to-all") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestModelMultiPathBeatsSP(t *testing.T) {
	res, err := ModelThroughput(ModelConfig{
		Params:    tiny,
		Patterns:  []string{"shift"},
		IncludeSP: true,
	}, Scale{TopoSamples: 2, PatternSamples: 4, K: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	sp := res.Mean[0][0]
	for si := 1; si < len(res.Selectors); si++ {
		if res.Mean[0][si] <= sp {
			t.Fatalf("%s (%v) not above SP (%v)", res.Selectors[si], res.Mean[0][si], sp)
		}
	}
}

func TestFlitSaturation(t *testing.T) {
	cfg := FlitConfig{
		Params:  tiny,
		Pattern: "permutation",
		Rates:   flitsim.Rates(0.2, 1.0, 0.2),
	}
	sc := Scale{TopoSamples: 1, PatternSamples: 2, K: 4, Seed: 7, Workers: 4}
	res, err := FlitSaturation(cfg, sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Mean) != 4 || len(res.Mean[0]) != 5 {
		t.Fatalf("shape = %dx%d", len(res.Mean), len(res.Mean[0]))
	}
	for ai, sel := range res.Selectors {
		for mi, mech := range res.Mechanisms {
			v := res.Mean[ai][mi]
			if v < 0 || v > 1 {
				t.Fatalf("%s/%s = %v", sel, mech, v)
			}
		}
	}
	out := res.Table("Figure Y").String()
	if !strings.Contains(out, "KSP-adaptive") || !strings.Contains(out, "rEDKSP") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestFlitSaturationRejectsBadPattern(t *testing.T) {
	_, err := FlitSaturation(FlitConfig{Params: tiny, Pattern: "nope"},
		Scale{TopoSamples: 1, PatternSamples: 1, K: 2, Seed: 1})
	if err == nil {
		t.Fatal("bad pattern accepted")
	}
}

func TestFlitLatencyCurve(t *testing.T) {
	cfg := FlitConfig{
		Params:  tiny,
		Pattern: "uniform",
		Rates:   []float64{0.1, 0.5, 1.0},
	}
	res, err := FlitLatencyCurve(cfg, routing.KSPAdaptive(), tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Latency) != 4 || len(res.Latency[0]) != 3 {
		t.Fatalf("shape wrong")
	}
	// Low load must be unsaturated with a sane latency for every selector.
	for ai, sel := range res.Selectors {
		v := res.Latency[ai][0]
		if math.IsNaN(v) || v < 10 || v > 400 {
			t.Fatalf("%s low-load latency = %v", sel, v)
		}
	}
	out := res.Table("Figure Z").String()
	if !strings.Contains(out, "0.10") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestAppCommTimes(t *testing.T) {
	for _, mapping := range []string{"linear", "random"} {
		res, err := AppCommTimes(AppConfig{
			Params:       tiny,
			Mapping:      mapping,
			BytesPerRank: 100 * 1500, // keep runtime small
			Mechanism:    routing.KSPAdaptive(),
		}, tinyScale())
		if err != nil {
			t.Fatalf("%s: %v", mapping, err)
		}
		if len(res.Stencils) != 4 || len(res.Selectors) != 3 {
			t.Fatalf("%s: shape %v x %v", mapping, res.Stencils, res.Selectors)
		}
		for si, st := range res.Stencils {
			for ai, sel := range res.Selectors {
				v := res.Seconds[si][ai]
				if v <= 0 || math.IsNaN(v) {
					t.Fatalf("%s %s/%s = %v", mapping, st, sel, v)
				}
				// Lower bound: serialization of 100 packets at 75ns each.
				if v < 100*75e-9 {
					t.Fatalf("%s %s/%s = %v below serialization bound", mapping, st, sel, v)
				}
			}
		}
		out := res.Table("Table V-ish").String()
		if !strings.Contains(out, "rEDKSP(4)") || !strings.Contains(out, "Average") {
			t.Fatalf("render:\n%s", out)
		}
	}
}

func TestAppCommTimesRejectsBadMapping(t *testing.T) {
	_, err := AppCommTimes(AppConfig{Params: tiny, Mapping: "diagonal"},
		Scale{TopoSamples: 1, PatternSamples: 1, K: 2, Seed: 1})
	if err == nil {
		t.Fatal("bad mapping accepted")
	}
}

func TestScaleDeterminism(t *testing.T) {
	sc := tinyScale()
	a, err := PathProps([]jellyfish.Params{tiny}, []ksp.Algorithm{ksp.REDKSP}, sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PathProps([]jellyfish.Params{tiny}, []ksp.Algorithm{ksp.REDKSP}, sc)
	if err != nil {
		t.Fatal(err)
	}
	if a.Q[0][0] != b.Q[0][0] {
		t.Fatalf("nondeterministic: %+v vs %+v", a.Q[0][0], b.Q[0][0])
	}
}

func TestSelectorNames(t *testing.T) {
	if got := SelectorNames(true); len(got) != 5 || got[0] != "SP" || got[4] != "rEDKSP" {
		t.Fatalf("names = %v", got)
	}
	if got := SelectorNames(false); len(got) != 4 || got[0] != "KSP" {
		t.Fatalf("names = %v", got)
	}
}
