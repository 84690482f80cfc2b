// Command jfmodel reproduces the throughput-model figures (Figures 4-6):
// the average per-node normalized throughput of SP, KSP, rKSP, EDKSP and
// rEDKSP under permutation, shift, Random(X) and all-to-all traffic.
//
//	jfmodel -topo small                      # Figure 4
//	jfmodel -topo medium                     # Figure 5
//	jfmodel -topo large -pattern permutation # one Figure 6 group
//
// The paper averages 10 RRG instances x 50 pattern instances; that is
// -topo-samples 10 -pattern-samples 50 (hours of compute on the large
// topology — defaults are smaller). The model's check against exact
// max-min fairness is jfablate -study validate.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/exp"
	"repro/internal/jellyfish"
	"repro/internal/stats"
)

func main() {
	var (
		topoName       = flag.String("topo", "small", "topology: small, medium or large")
		pattern        = flag.String("pattern", "all", "pattern: permutation, shift, random(X), all-to-all or all")
		randomX        = flag.Int("random-x", 50, "X of the Random(X) pattern")
		k              = flag.Int("k", 8, "paths per switch pair")
		topoSamples    = flag.Int("topo-samples", 2, "RRG instances")
		patternSamples = flag.Int("pattern-samples", 5, "traffic instances per RRG instance")
		seed           = flag.Uint64("seed", 1, "experiment seed")
		workers        = flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
		csv            = flag.Bool("csv", false, "emit CSV instead of aligned text")
		noSP           = flag.Bool("no-sp", false, "omit the single-path baseline")
		chart          = flag.Bool("chart", false, "render a text bar chart instead of a table")
	)
	flag.Parse()

	if *k < 1 {
		fatal(fmt.Errorf("-k must be at least 1, got %d", *k))
	}
	if *randomX < 1 {
		fatal(fmt.Errorf("-random-x must be at least 1, got %d", *randomX))
	}
	params, err := jellyfish.ByName(*topoName)
	if err != nil {
		fatal(err)
	}
	cfg := exp.ModelConfig{
		Params:    params,
		RandomX:   *randomX,
		IncludeSP: !*noSP,
	}
	if *pattern != "all" {
		cfg.Patterns = strings.Split(*pattern, ",")
	}
	sc := exp.Scale{
		TopoSamples:    *topoSamples,
		PatternSamples: *patternSamples,
		K:              *k,
		Seed:           *seed,
		Workers:        *workers,
	}
	res, err := exp.ModelThroughput(cfg, sc)
	if err != nil {
		fatal(err)
	}
	title := fmt.Sprintf("Model throughput on %v (k=%d, %d topo x %d pattern samples)",
		params, *k, *topoSamples, *patternSamples)
	if *chart {
		fmt.Println(stats.FromTableData(title, res.Patterns, res.Selectors, res.Mean).String())
		return
	}
	t := res.Table(title)
	if *csv {
		fmt.Print(t.CSV())
	} else {
		fmt.Println(t.String())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "jfmodel:", err)
	os.Exit(1)
}
