package bench

import (
	_ "embed"
	"encoding/json"
)

// refData holds the seed-1 results every full-size run at seed 1 must
// reproduce exactly. It was recorded from the composed pipelines, which
// TestPipelinesMatchExp pins to the experiment harness.
type refData struct {
	// Fig9Saturation is the saturation throughput of every
	// exp.FlitSaturation job (shift pattern, 10 pattern samples), by job
	// index. Jobs 0-19 (pattern sample 0) form the one-sample Figure 9
	// table.
	Fig9Saturation []float64 `json:"fig9_saturation"`
	// TableVCycles is the completion cycle count of every Table V replay,
	// stencil-major in the order rEDKSP, KSP, rKSP.
	TableVCycles []int64 `json:"tablev_cycles"`
	// PathsRound0 is the Table II-IV row of the first paths-medium round,
	// per selector.
	PathsRound0 map[string]qualityRow `json:"paths_round0"`
	// SweepRouted and SweepFNV describe the first serve sweep: pairs
	// routed and the FNV-64a hash of every routed path in order.
	SweepRouted int64  `json:"sweep_routed"`
	SweepFNV    string `json:"sweep_fnv"`
}

// qualityRow is one selector's row of the paper's Tables II-IV.
type qualityRow struct {
	Pairs            int     `json:"pairs"`
	AvgLen           float64 `json:"avg_len"`
	DisjointFraction float64 `json:"disjoint_fraction"`
	MaxShare         int     `json:"max_share"`
	AvgPaths         float64 `json:"avg_paths"`
	Fallbacks        int     `json:"fallbacks"`
}

// complete reports whether every workload has its reference.
func (ref refData) complete() bool {
	return len(ref.Fig9Saturation) > 0 && len(ref.TableVCycles) > 0 && len(ref.PathsRound0) == len(pathsSelectors) &&
		ref.SweepRouted > 0 && ref.SweepFNV != ""
}

//go:embed testdata/reference.json
var referenceJSON []byte

var reference = func() refData {
	var ref refData
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		panic("bench: testdata/reference.json: " + err.Error())
	}
	return ref
}()
