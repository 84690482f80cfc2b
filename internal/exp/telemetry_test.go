package exp

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ksp"
	"repro/internal/traffic"
)

func TestFlitTelemetryRun(t *testing.T) {
	res, col, m, err := FlitTelemetryRun(FlitTelemetryConfig{
		Params:   tiny,
		Selector: ksp.REDKSP,
		Pattern:  "uniform",
		Rate:     0.3,
	}, tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
	if m.Tool != "jfnet" || m.Selector != "rEDKSP" || m.Mechanism != "KSP-adaptive" {
		t.Fatalf("manifest = %+v", m)
	}
	dir := t.TempDir()
	if err := col.Export(dir, m); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"manifest.json", "links.csv", "latency_hist.json", "windows.csv"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("missing export %s: %v", name, err)
		}
	}

	for _, rate := range []float64{0, 1.5, math.NaN()} {
		if _, _, _, err := FlitTelemetryRun(FlitTelemetryConfig{
			Params: tiny, Selector: ksp.REDKSP, Pattern: "uniform", Rate: rate,
		}, tinyScale()); err == nil {
			t.Errorf("injection rate %v accepted", rate)
		}
	}
}

func TestAppTelemetryRun(t *testing.T) {
	res, col, m, err := AppTelemetryRun(AppTelemetryConfig{
		Params:       tiny,
		Selector:     ksp.RKSP,
		Stencil:      traffic.Stencil2DNN,
		Mapping:      "linear",
		BytesPerRank: 10 * 1500,
	}, tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if res.Packets == 0 {
		t.Fatal("no packets delivered")
	}
	if m.Tool != "jfapp" || m.Stencil != "2DNN" || m.Mapping != "linear" {
		t.Fatalf("manifest = %+v", m)
	}
	dir := t.TempDir()
	if err := col.Export(dir, m); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "choices.csv")); err != nil {
		t.Fatalf("missing choices.csv: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "latency_hist.json")); !os.IsNotExist(err) {
		t.Fatal("app run should not export a latency histogram")
	}

	if _, _, _, err := AppTelemetryRun(AppTelemetryConfig{
		Params: tiny, Selector: ksp.KSP, Stencil: traffic.Stencil2DNN, Mapping: "nope",
	}, tinyScale()); err == nil {
		t.Fatal("bad mapping accepted")
	}
}
