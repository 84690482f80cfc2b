// Command jfablate runs the ablation studies DESIGN.md calls out, on top
// of the paper's experiments:
//
//	jfablate -study k           # model throughput vs k per selector
//	jfablate -study ugal-bias   # saturation vs UGAL MIN-bias
//	jfablate -study imbalance   # link-load statistics per selector
//	jfablate -study faults      # path survival under random link failures
//	jfablate -study scaling     # path structure + throughput vs system size
//	jfablate -study validate    # Eq.1 model vs exact max-min fairness
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/exp"
	"repro/internal/flitsim"
	"repro/internal/jellyfish"
	"repro/internal/stats"
)

func main() {
	var (
		study          = flag.String("study", "k", "ablation study: k, ugal-bias, imbalance, faults, scaling or validate")
		topoName       = flag.String("topo", "small", "topology: small, medium or large")
		ks             = flag.String("ks", "1,2,4,8,16", "comma-separated k values for -study k")
		biases         = flag.String("biases", "0,1,4,16,64", "comma-separated MIN biases for -study ugal-bias")
		failures       = flag.String("failures", "0,1,2,4,8,16", "comma-separated failed-link counts for -study faults")
		pairs          = flag.Int("pairs", 2000, "pair sample for -study faults (0 = all)")
		k              = flag.Int("k", 8, "paths per pair (non-k studies)")
		topoSamples    = flag.Int("topo-samples", 1, "RRG instances")
		patternSamples = flag.Int("pattern-samples", 3, "traffic instances")
		seed           = flag.Uint64("seed", 1, "experiment seed")
		workers        = flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
		csv            = flag.Bool("csv", false, "emit CSV instead of aligned text")
	)
	flag.Parse()

	if *k < 1 {
		fatal(fmt.Errorf("-k must be at least 1, got %d", *k))
	}
	if *pairs < 0 {
		fatal(fmt.Errorf("-pairs must be non-negative, got %d", *pairs))
	}
	params, err := jellyfish.ByName(*topoName)
	if err != nil {
		fatal(err)
	}
	sc := exp.Scale{
		TopoSamples:    *topoSamples,
		PatternSamples: *patternSamples,
		K:              *k,
		Seed:           *seed,
		Workers:        *workers,
	}

	var t *stats.Table
	switch *study {
	case "k":
		kvals, err := parseInts(*ks)
		if err != nil {
			fatal(err)
		}
		res, err := exp.AblationKSweep(params, kvals, sc)
		if err != nil {
			fatal(err)
		}
		t = res.Table(fmt.Sprintf("Model throughput vs k, shift traffic on %v", params))
	case "ugal-bias":
		bvals, err := parseInts(*biases)
		if err != nil {
			fatal(err)
		}
		res, err := exp.AblationUGALBias(params, bvals, flitsim.Rates(0.05, 1.0, 0.05), sc)
		if err != nil {
			fatal(err)
		}
		t = res.Table(fmt.Sprintf("Saturation throughput vs UGAL MIN-bias on %v (rEDKSP(%d))", params, *k))
	case "imbalance":
		res, err := exp.LoadImbalance(params, sc)
		if err != nil {
			fatal(err)
		}
		t = res.Table(fmt.Sprintf("Link-load imbalance, %s traffic on %v (k=%d)", res.Pattern, params, *k))
	case "faults":
		fvals, err := parseInts(*failures)
		if err != nil {
			fatal(err)
		}
		fsc := sc
		fsc.PairSample = *pairs
		res, err := exp.FaultResilience(params, fvals, fsc)
		if err != nil {
			fatal(err)
		}
		t = res.Table(fmt.Sprintf("Fraction of pairs with a surviving path, %v (k=%d, %d trials)",
			params, *k, res.Trials))
		fmt.Println(res.PathsTable(fmt.Sprintf("Mean surviving paths per pair, %v", params)).String())
	case "validate":
		res, err := exp.ValidateModel(params, sc)
		if err != nil {
			fatal(err)
		}
		t = res.Table(fmt.Sprintf("Throughput model vs max-min fairness, shift traffic on %v (k=%d)", params, *k))
	case "scaling":
		rows, err := exp.ScalingStudy(exp.DefaultScalingSizes, sc)
		if err != nil {
			fatal(err)
		}
		t = exp.RenderScaling(rows)
	default:
		fatal(fmt.Errorf("unknown study %q", *study))
	}
	if *csv {
		fmt.Print(t.CSV())
	} else {
		fmt.Println(t.String())
	}
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "jfablate:", err)
	os.Exit(1)
}
