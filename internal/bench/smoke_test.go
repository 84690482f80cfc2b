package bench

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// buildJfserve builds the daemon the serve workload drives.
func buildJfserve(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "jfserve")
	out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/jfserve").CombinedOutput()
	if err != nil {
		t.Fatalf("build jfserve: %v\n%s", err, out)
	}
	return bin
}

// benchmarkJSON is the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if len(bj.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, jfbench runs %d", len(bj.Workloads), len(Workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != Workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, jfbench %q", i, w.Name, Workloads[i])
		}
	}
	if len(bj.EndToEnd) != len(EndToEnd) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, the catalogue %d", len(bj.EndToEnd), len(EndToEnd))
	}
	for i := range min(len(bj.EndToEnd), len(EndToEnd)) {
		j, m := bj.EndToEnd[i], EndToEnd[i]
		if j.Name != m.Name || j.Unit != m.Unit || j.Better != m.Better || j.Bound != m.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, catalogue %+v", i, j, m)
		}
	}
	if len(bj.PerLayer) != len(PerLayer) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the catalogue %d", len(bj.PerLayer), len(PerLayer))
	}
	for i := range min(len(bj.PerLayer), len(PerLayer)) {
		j, m := bj.PerLayer[i], PerLayer[i]
		if j.Name != m.Name || j.Unit != m.Unit || j.Better != m.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, catalogue %+v", i, j, m)
		}
	}
}

// TestSmoke runs every workload at Tiny size, traced, and checks that its
// outputs pass their checks and that every metric BENCHMARK.json names is
// emitted: each end-to-end metric nonzero, each per-layer metric present.
func TestSmoke(t *testing.T) {
	bj := readBenchmarkJSON(t)
	jfserve := buildJfserve(t)
	seconds := map[string]float64{"serve": 2}
	for _, w := range Workloads {
		t.Run(w, func(t *testing.T) {
			s := seconds[w]
			if s == 0 {
				s = 0.3
			}
			res, err := Run(Options{Workload: w, Seed: 2, Seconds: s, Trace: true, Size: Tiny, Jfserve: jfserve})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("correct %v, %d of %d operations failed: %v", res.Correct, res.Failed, res.Attempted, res.Problems)
			}
			for _, m := range bj.EndToEnd {
				if v, ok := res.EndToEnd[m.Name]; !ok || v <= 0 {
					t.Errorf("end-to-end %s = %v (reported %v)", m.Name, v, ok)
				}
			}
			for _, m := range bj.PerLayer {
				if _, ok := res.PerLayer[m.Name]; !ok {
					t.Errorf("per-layer %s not reported", m.Name)
				}
			}
			if len(res.Spans) == 0 {
				t.Errorf("traced run recorded no spans")
			}
		})
	}
}
