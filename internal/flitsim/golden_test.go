package flitsim

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/faults"
	"repro/internal/ksp"
	"repro/internal/paths"
	"repro/internal/routing"
	"repro/internal/traffic"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_results.json")

// TestFaultSweepParallelSmoke runs a parallel Sweep sharing one topology,
// path DB and fault schedule across workers. Its job is to fail under the
// race detector if the sparse hot-loop state or the shared read-only
// inputs are ever touched unsafely (`make check` runs every Fault test
// with -race), and to pin that parallel sweeps stay deterministic.
func TestFaultSweepParallelSmoke(t *testing.T) {
	topo := jelly(t, 12, 8, 4, 3)
	sched, err := faults.ParseSpec("random:2@800", topo.G, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Topo:      topo,
		Paths:     paths.BuildAllPairs(topo.G, ksp.Config{Alg: ksp.REDKSP, K: 4}, 1, 0),
		Mechanism: routing.KSPAdaptive(),
		Traffic:   traffic.Uniform{N: topo.NumTerminals()},
		Seed:      11,
		Faults:    sched,
	}
	rates := []float64{0.05, 0.2, 0.4, 0.6}
	a := Sweep(cfg, rates, 4)
	b := Sweep(cfg, rates, 2)
	for i := range a {
		if a[i].Delivered == 0 {
			t.Fatalf("rate %v delivered nothing", rates[i])
		}
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Fatalf("rate %v differs across worker counts:\n%+v\n%+v", rates[i], a[i], b[i])
		}
	}
}

const goldenFile = "testdata/golden_results.json"

// TestResultGolden pins the exact Result of 36 runs — every mechanism at a
// low, mid and saturating load, each with and without a mid-run
// link-failure burst — against committed values. Any change to per-cycle
// behavior, RNG consumption order, arbitration order or fault handling
// shows up as a field-level diff here, which is how hot-loop rewrites
// prove themselves bit-identical. Regenerate with
// `go test ./internal/flitsim -run ResultGolden -update` only when a
// behavior change is intended.
func TestResultGolden(t *testing.T) {
	topo := jelly(t, 12, 8, 4, 3)
	pdb := paths.BuildAllPairs(topo.G, ksp.Config{Alg: ksp.REDKSP, K: 4}, 1, 0)
	mechs := append(routing.Mechanisms(), routing.SP())

	faultSched, err := faults.ParseSpec("random:2@600,1@2200", topo.G, 99)
	if err != nil {
		t.Fatal(err)
	}

	got := map[string]Result{}
	for _, mech := range mechs {
		for _, load := range []float64{0.05, 0.30, 0.90} {
			for _, faulty := range []bool{false, true} {
				cfg := Config{
					Topo:          topo,
					Paths:         pdb,
					Mechanism:     mech,
					Traffic:       traffic.Uniform{N: topo.NumTerminals()},
					InjectionRate: load,
					Seed:          1234,
				}
				key := fmt.Sprintf("%s/load=%.2f/faults=off", mech.Name(), load)
				if faulty {
					cfg.Faults = faultSched
					key = fmt.Sprintf("%s/load=%.2f/faults=on", mech.Name(), load)
				}
				got[key] = New(cfg).Run()
			}
		}
	}

	if *updateGolden {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		buf = append(buf, '\n')
		if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d results", goldenFile, len(got))
		return
	}

	buf, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	var want map[string]Result
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d results, run produced %d", len(want), len(got))
	}
	for key, w := range want {
		g, ok := got[key]
		if !ok {
			t.Errorf("%s: missing from run", key)
			continue
		}
		// Field-by-field so a mismatch names the exact counter that moved.
		wv, gv := reflect.ValueOf(w), reflect.ValueOf(g)
		for i := 0; i < wv.NumField(); i++ {
			name := wv.Type().Field(i).Name
			if !reflect.DeepEqual(wv.Field(i).Interface(), gv.Field(i).Interface()) {
				t.Errorf("%s: %s = %v, golden %v", key, name,
					gv.Field(i).Interface(), wv.Field(i).Interface())
			}
		}
	}
}
