package appsim

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

	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/jellyfish"
	"repro/internal/ksp"
	"repro/internal/paths"
	"repro/internal/routing"
	"repro/internal/telemetry"
	"repro/internal/traffic"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_results.json")

const goldenFile = "testdata/golden_results.json"

// goldenResult is the pinned projection of a Result: every counter, plus
// an FNV-1a hash standing in for the per-flow completion cycles.
type goldenResult struct {
	Cycles, Packets                             int64
	MaxHops                                     int
	Dropped, Rerouted, PathRepairs, FaultEvents int64
	FlowCompletionsFNV                          string
}

func pin(res Result) goldenResult {
	h := fnv.New64a()
	var buf [8]byte
	for _, c := range res.FlowCompletions {
		binary.LittleEndian.PutUint64(buf[:], uint64(c))
		h.Write(buf[:])
	}
	return goldenResult{
		Cycles: res.Cycles, Packets: res.Packets, MaxHops: res.MaxHops,
		Dropped: res.Dropped, Rerouted: res.Rerouted, PathRepairs: res.PathRepairs,
		FaultEvents:        res.FaultEvents,
		FlowCompletionsFNV: fmt.Sprintf("%016x", h.Sum64()),
	}
}

// wholeSetDown scripts every edge of every candidate path of the first
// inter-switch flow's pair to go down at cycle 40 and come back at cycle
// 200, so that pair's whole candidate set dies and only repair can route
// it in between.
func wholeSetDown(topo *jellyfish.Topology, db *paths.DB, flows []traffic.SizedFlow) *faults.Schedule {
	var evs []faults.Event
	for _, f := range flows {
		src, dst := topo.SwitchOf(f.Src), topo.SwitchOf(f.Dst)
		if src == dst {
			continue
		}
		seen := map[uint64]bool{}
		for _, p := range db.Paths(src, dst) {
			for i := 0; i+1 < len(p); i++ {
				if key := graph.UndirectedEdgeKey(p[i], p[i+1]); !seen[key] {
					seen[key] = true
					evs = append(evs,
						faults.Event{At: 40, U: p[i], V: p[i+1]},
						faults.Event{At: 200, Up: true, U: p[i], V: p[i+1]})
				}
			}
		}
		break
	}
	return faults.MustSchedule(evs)
}

// TestResultGolden pins the exact Result of 21 stencil replays on a small
// RRG — every mechanism without faults, under a scripted whole-set
// failure with reroute and repair, and under the drop policy — plus
// three KSP-adaptive variants: two iterations, telemetry attached (which
// must also equal the telemetry-off run) and 70 VCs, which needs more
// than one 64-bit VC mask word. Any change to arbitration order, RNG
// consumption, store-and-forward timing or fault handling shows up as a
// field-level diff. Regenerate with
// `go test ./internal/appsim -run ResultGolden -update` only when a
// behavior change is intended.
func TestResultGolden(t *testing.T) {
	topo := jelly(t, 18, 8, 6, 2)
	db := paths.BuildAllPairs(topo.G, ksp.Config{Alg: ksp.REDKSP, K: 4}, 1, 0)
	flows := traffic.Stencil(traffic.StencilConfig{
		Kind: traffic.Stencil2DNNDiag, Ranks: topo.NumTerminals(), TotalBytes: 600 * 1500,
	}).Apply(traffic.LinearMapping(topo.NumTerminals()))
	sched := wholeSetDown(topo, db, flows)

	base := Config{Topo: topo, Paths: db, Flows: flows, Seed: 77, TrackFlows: true}
	cfgs := map[string]Config{}
	for _, mech := range append(routing.Mechanisms(), routing.SP()) {
		c := base
		c.Mechanism = mech
		cfgs[mech.Name()+"/faults=none"] = c
		c.Faults = sched
		cfgs[mech.Name()+"/faults=reroute"] = c
		c.FaultPolicy = faults.Policy{Drop: true}
		cfgs[mech.Name()+"/faults=drop"] = c
	}
	c := base
	c.Iterations, c.ComputeGap = 2, 50
	cfgs["KSP-adaptive/iterations=2"] = c
	c = cfgs["KSP-adaptive/faults=reroute"]
	c.Telemetry = telemetry.NewCollector()
	cfgs["KSP-adaptive/faults=reroute/telemetry"] = c
	c = base
	c.NumVCs = 70
	cfgs["KSP-adaptive/vcs=70"] = c

	got := map[string]goldenResult{}
	for key, cfg := range cfgs {
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		got[key] = pin(res)
	}
	for key, r := range got {
		if cfgs[key].Faults != nil && !cfgs[key].FaultPolicy.Drop && r.PathRepairs == 0 {
			t.Errorf("%s: the whole-set failure triggered no repair", key)
		}
	}
	if a, b := got["KSP-adaptive/faults=reroute/telemetry"], got["KSP-adaptive/faults=reroute"]; a != b {
		t.Errorf("telemetry changed the result:\n on %+v\noff %+v", a, b)
	}

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
	var want map[string]goldenResult
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
		// Field by field, so a mismatch names the exact counter that moved.
		wv, gv := reflect.ValueOf(w), reflect.ValueOf(g)
		for i := 0; i < wv.NumField(); i++ {
			if wf, gf := wv.Field(i).Interface(), gv.Field(i).Interface(); wf != gf {
				t.Errorf("%s: %s = %v, golden %v", key, wv.Type().Field(i).Name, gf, wf)
			}
		}
	}
}
