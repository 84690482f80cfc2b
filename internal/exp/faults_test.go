package exp

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/xrand"
)

// TestFailureSetGolden pins the exact failure set drawn for a fixed seed:
// the schedule-replay and comparability guarantees of the fault studies
// rest on this never drifting across refactors. FaultResilience draws
// each trial's set through faults.Random with the same kind of stream.
func TestFailureSetGolden(t *testing.T) {
	topo, err := tinyScale().buildTopo(tiny, 0)
	if err != nil {
		t.Fatal(err)
	}
	draw := func() []string {
		sched, err := faults.Random(topo.G, 5, 0, xrand.NewPair(7, 0))
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, e := range sched.Events() {
			got = append(got, fmt.Sprintf("%d-%d", e.U, e.V))
		}
		sort.Strings(got)
		return got
	}
	got := draw()
	want := []string{"0-11", "0-7", "1-9", "6-11", "7-10"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("failure set drifted:\n got %v\nwant %v", got, want)
	}
	// Determinism: the same seed redraws the same set.
	if again := draw(); strings.Join(again, ",") != strings.Join(got, ",") {
		t.Fatalf("redraw differs: %v vs %v", again, got)
	}
}

// TestFaultSurvivalEDKSPBeatsKSP is the property behind the study: an
// edge-disjoint path set loses at most one path per failed link, so EDKSP
// pairs keep a usable path at least as often as vanilla KSP pairs, whose
// clustered paths can all die together.
func TestFaultSurvivalEDKSPBeatsKSP(t *testing.T) {
	sc := Scale{TopoSamples: 1, PatternSamples: 8, K: 4, Seed: 3, Workers: 4}
	res, err := FaultResilience(tiny, []int{1, 2, 4, 8, 16}, sc)
	if err != nil {
		t.Fatal(err)
	}
	// ksp.Algorithms order: KSP, rKSP, EDKSP, rEDKSP.
	const ikspIdx, edkspIdx = 0, 2
	for fi, f := range res.FailedLinks {
		ksps, eds := res.Survive[fi][ikspIdx], res.Survive[fi][edkspIdx]
		if eds+1e-9 < ksps {
			t.Errorf("%d failures: EDKSP survival %.4f below KSP %.4f", f, eds, ksps)
		}
		if eds < 0 || eds > 1 || ksps < 0 || ksps > 1 {
			t.Errorf("%d failures: survival out of range (%v, %v)", f, ksps, eds)
		}
	}
	// More failures never help: survival is non-increasing in f.
	for fi := 1; fi < len(res.FailedLinks); fi++ {
		for ai := range res.Selectors {
			if res.Survive[fi][ai] > res.Survive[fi-1][ai]+1e-9 {
				t.Errorf("%s: survival rose from %.4f to %.4f as failures grew",
					res.Selectors[ai], res.Survive[fi-1][ai], res.Survive[fi][ai])
			}
		}
	}
	if out := res.Table("survival").String(); !strings.Contains(out, "EDKSP") {
		t.Fatalf("render:\n%s", out)
	}
}

// TestFaultRunSmoke exercises the dynamic fault sweep end to end on a tiny
// topology: every (selector, mechanism) cell must be populated, the
// fault-free baseline must move traffic without drops, and rendering must
// include every mechanism.
func TestFaultRunSmoke(t *testing.T) {
	cfg := FaultRunConfig{Params: tiny, FailedLinks: []int{0, 3}}
	sc := Scale{TopoSamples: 1, PatternSamples: 1, K: 4, Seed: 3, Workers: 8}
	res, err := FaultRun(cfg, sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Delivered) != 2 || len(res.Delivered[0]) != 4 || len(res.Delivered[0][0]) != len(res.Mechanisms) {
		t.Fatalf("shape wrong: %dx%dx%d", len(res.Delivered), len(res.Delivered[0]), len(res.Delivered[0][0]))
	}
	for fi := range res.Delivered {
		for ai := range res.Delivered[fi] {
			for mi := range res.Delivered[fi][ai] {
				d := res.Delivered[fi][ai][mi]
				if d <= 0 || d > 1 {
					t.Errorf("delivered[%d][%s][%s] = %v out of range",
						res.FailedLinks[fi], res.Selectors[ai], res.Mechanisms[mi], d)
				}
				if fi == 0 && res.Dropped[fi][ai][mi] != 0 {
					t.Errorf("fault-free baseline dropped %v packets (%s/%s)",
						res.Dropped[fi][ai][mi], res.Selectors[ai], res.Mechanisms[mi])
				}
			}
		}
	}
	tables := res.Tables("fault sweep")
	if len(tables) != len(res.Mechanisms) {
		t.Fatalf("tables = %d", len(tables))
	}
	for mi, tb := range tables {
		if out := tb.String(); !strings.Contains(out, res.Mechanisms[mi]) {
			t.Fatalf("table %d missing mechanism name:\n%s", mi, out)
		}
	}
}
