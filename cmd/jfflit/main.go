// Command jfflit reproduces the cycle-level simulation results:
//
//	jfflit -experiment saturation -pattern permutation -topo small  # Figure 7
//	jfflit -experiment saturation -pattern permutation -topo medium # Figure 8
//	jfflit -experiment saturation -pattern shift -topo small        # Figure 9
//	jfflit -experiment saturation -pattern shift -topo medium       # Figure 10
//	jfflit -experiment latency -pattern uniform -topo medium        # Figure 11
//	jfflit -experiment latency -pattern permutation -topo medium    # Figure 12
//	jfflit -experiment latency -pattern shift -topo medium          # Figure 13
//
// Saturation runs sweep offered load per (selector, mechanism) pair and
// report the last load before saturation; latency runs emit latency-vs-load
// series per selector under one mechanism (default KSP-adaptive, matching
// the paper's Section IV-D text; pass -mechanism random to match the
// Figure 11 caption instead).
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cliflags"
	"repro/internal/exp"
	"repro/internal/flitsim"
	"repro/internal/jellyfish"
	"repro/internal/routing"
	"repro/internal/stats"
)

func main() {
	var (
		experiment     = flag.String("experiment", "saturation", "saturation or latency")
		topoName       = flag.String("topo", "small", "topology: small, medium or large")
		pattern        = flag.String("pattern", "permutation", "permutation, shift or uniform")
		mechanism      = cliflags.Mechanism("ksp-adaptive")
		k              = flag.Int("k", 8, "paths per switch pair")
		topoSamples    = flag.Int("topo-samples", 1, "RRG instances")
		patternSamples = flag.Int("pattern-samples", 3, "traffic instances per RRG instance")
		rateStart      = flag.Float64("rate-start", 0.05, "lowest offered load")
		rateStop       = flag.Float64("rate-stop", 1.0, "highest offered load")
		rateStep       = flag.Float64("rate-step", 0.05, "offered load step")
		seed           = flag.Uint64("seed", 1, "experiment seed")
		workers        = flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
		csv            = flag.Bool("csv", false, "emit CSV instead of aligned text")
		chart          = flag.Bool("chart", false, "render saturation results as a text bar chart")
		pathCache      = cliflags.PathCache()
		prof           = cliflags.ProfileFlags()
	)
	flag.Parse()

	if *k < 1 {
		fatal(fmt.Errorf("-k must be at least 1, got %d", *k))
	}
	if err := prof.Start(); err != nil {
		fatal(err)
	}
	defer prof.Stop()
	// Written so NaN fails: every comparison with NaN is false.
	if !(0 < *rateStart && *rateStart <= *rateStop && *rateStop <= 1) {
		fatal(fmt.Errorf("offered-load range (%g, %g) must satisfy 0 < start <= stop <= 1", *rateStart, *rateStop))
	}
	if err := flitsim.ValidateRates(*rateStart, *rateStop, *rateStep); err != nil {
		fatal(err)
	}
	params, err := jellyfish.ByName(*topoName)
	if err != nil {
		fatal(err)
	}
	cfg := exp.FlitConfig{
		Params:  params,
		Pattern: *pattern,
		Rates:   flitsim.Rates(*rateStart, *rateStop, *rateStep),
	}
	sc := exp.Scale{
		TopoSamples:    *topoSamples,
		PatternSamples: *patternSamples,
		K:              *k,
		Seed:           *seed,
		Workers:        *workers,
		PathCache:      *pathCache,
	}

	var t *stats.Table
	switch *experiment {
	case "saturation":
		res, err := exp.FlitSaturation(cfg, sc)
		if err != nil {
			fatal(err)
		}
		title := fmt.Sprintf("Saturation throughput, %s traffic on %v (k=%d)",
			*pattern, params, *k)
		if *chart {
			fmt.Println(stats.FromTableData(title, res.Selectors, res.Mechanisms, res.Mean).String())
			return
		}
		t = res.Table(title)
	case "latency":
		mech, err := routing.ByName(*mechanism)
		if err != nil {
			fatal(err)
		}
		res, err := exp.FlitLatencyCurve(cfg, mech, sc)
		if err != nil {
			fatal(err)
		}
		t = res.Table(fmt.Sprintf("Average packet latency vs load, %s traffic on %v, %s (k=%d)",
			*pattern, params, mech.Name(), *k))
	default:
		fatal(fmt.Errorf("unknown experiment %q (want saturation or latency)", *experiment))
	}
	if *csv {
		fmt.Print(t.CSV())
	} else {
		fmt.Println(t.String())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "jfflit:", err)
	os.Exit(1)
}
