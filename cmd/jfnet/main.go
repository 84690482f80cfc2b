// Command jfnet reproduces the paper's topology and path-property tables:
//
//	jfnet -table I                     # Table I   (topology metrics)
//	jfnet -table II                    # Table II  (average path length)
//	jfnet -table III                   # Table III (% disjoint pairs)
//	jfnet -table IV                    # Table IV  (max link sharing)
//	jfnet -table all                   # everything
//
// Useful flags: -topos small,medium -k 8 -topo-samples 1 -pairs 20000
// (pair sampling for the large topology) -csv.
//
// With -telemetry it instead runs one instrumented cycle-level simulation
// and exports per-link utilization, queue depths and the latency
// histogram (see docs/TELEMETRY.md for the file schema):
//
//	jfnet -telemetry out/ -selector rEDKSP -mechanism ksp-adaptive \
//	      -pattern shift -rate 0.7 -topos small
//
// Link failures can be injected into telemetry runs with -faults (a
// "random:<n>@<cycle>" spec or a schedule file, see docs/FAULTS.md) and
// -fault-policy. -fault-sweep runs the dynamic resilience experiment
// instead: delivered throughput versus failed-link count for every
// selector x mechanism combination:
//
//	jfnet -fault-sweep 0,1,2,4,8 -topos small -rate 0.3
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/cliflags"
	"repro/internal/exp"
	"repro/internal/faults"
	"repro/internal/jellyfish"
	"repro/internal/ksp"
	"repro/internal/routing"
	"repro/internal/stats"
)

func main() {
	var (
		table       = flag.String("table", "all", "which table to produce: I, II, III, IV or all")
		topos       = flag.String("topos", "small,medium", "comma-separated topologies: small, medium, large")
		k           = flag.Int("k", 8, "paths per switch pair")
		topoSamples = flag.Int("topo-samples", 1, "RRG instances per topology")
		pairs       = flag.Int("pairs", 0, "sample this many switch pairs (0 = all ordered pairs)")
		seed        = flag.Uint64("seed", 1, "experiment seed")
		workers     = flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
		csv         = flag.Bool("csv", false, "emit CSV instead of aligned text")

		tel       = cliflags.TelemetryFlags("one instrumented flit-level simulation")
		mechanism = cliflags.Mechanism("ksp-adaptive")
		pattern   = flag.String("pattern", "permutation", "traffic pattern for -telemetry: permutation, shift or uniform")
		rate      = flag.Float64("rate", 0.7, "offered load for -telemetry, in [0,1]")

		faultFlags = cliflags.FaultFlags()
		faultSweep = flag.String("fault-sweep", "", "comma-separated failed-link counts: run delivered-throughput vs. failures for all selectors and mechanisms")
		pathCache  = cliflags.PathCache()
		prof       = cliflags.ProfileFlags()
	)
	flag.Parse()

	if *k < 1 {
		fatal(fmt.Errorf("-k must be at least 1, got %d", *k))
	}
	if err := prof.Start(); err != nil {
		fatal(err)
	}
	defer prof.Stop()

	if *faultSweep != "" {
		if err := runFaultSweep(*faultSweep, *topos, *pattern, *faultFlags.Policy, *rate, *k, *topoSamples, *seed, *workers, *pathCache, *csv); err != nil {
			fatal(err)
		}
		return
	}
	if *tel.Dir != "" {
		if err := runTelemetry(*tel.Dir, *topos, *tel.Selector, *mechanism, *pattern, *faultFlags.Spec, *faultFlags.Policy, *rate, *k, *seed, *workers, *pathCache); err != nil {
			fatal(err)
		}
		return
	}

	paramsList, err := parseTopos(*topos)
	if err != nil {
		fatal(err)
	}
	sc := exp.Scale{
		TopoSamples: *topoSamples,
		K:           *k,
		PairSample:  *pairs,
		Seed:        *seed,
		Workers:     *workers,
		PathCache:   *pathCache,
	}

	emit := func(t *stats.Table) {
		if *csv {
			fmt.Print(t.CSV())
		} else {
			fmt.Println(t.String())
		}
	}

	want := strings.ToUpper(*table)
	if want == "I" || want == "ALL" {
		rows, err := exp.TableI(paramsList, sc)
		if err != nil {
			fatal(err)
		}
		emit(exp.RenderTableI(rows))
	}
	if want == "II" || want == "III" || want == "IV" || want == "ALL" {
		res, err := exp.PathProps(paramsList, ksp.Algorithms, sc)
		if err != nil {
			fatal(err)
		}
		if res0 := totalFallbacks(res); res0 > 0 {
			fmt.Fprintf(os.Stderr, "note: %d pairs needed the edge-disjoint fallback\n", res0)
		}
		switch want {
		case "II":
			emit(res.TableII())
		case "III":
			emit(res.TableIII())
		case "IV":
			emit(res.TableIV())
		default:
			emit(res.TableII())
			emit(res.TableIII())
			emit(res.TableIV())
		}
	}
}

// runTelemetry executes one instrumented cycle-level run and exports the
// telemetry files. The first topology of -topos is used.
func runTelemetry(dir, topos, selector, mechanism, pattern, faultSpec, faultPolicy string, rate float64, k int, seed uint64, workers int, pathCache string) error {
	params, err := jellyfish.ByName(strings.TrimSpace(strings.Split(topos, ",")[0]))
	if err != nil {
		return err
	}
	alg, err := ksp.ByName(selector)
	if err != nil {
		return err
	}
	mech, err := routing.ByName(mechanism)
	if err != nil {
		return err
	}
	res, col, manifest, err := exp.FlitTelemetryRun(exp.FlitTelemetryConfig{
		Params:      params,
		Selector:    alg,
		Mechanism:   mech,
		Pattern:     pattern,
		Rate:        rate,
		FaultSpec:   faultSpec,
		FaultPolicy: faultPolicy,
	}, exp.Scale{K: k, Seed: seed, Workers: workers, PathCache: pathCache})
	if err != nil {
		return err
	}
	if err := col.Export(dir, manifest); err != nil {
		return err
	}
	sat := ""
	if res.Saturated {
		sat = " (saturated)"
	}
	fmt.Printf("%v %s/%s %s load %.2f: avg latency %.1f cycles, delivered rate %.3f%s\n",
		params, alg, mech.Name(), pattern, rate, res.AvgLatency, res.DeliveredRate, sat)
	if res.FaultEvents > 0 {
		fmt.Printf("faults: %d events, %d dropped, %d rerouted, %d path repairs\n",
			res.FaultEvents, res.Dropped, res.Rerouted, res.PathRepairs)
	}
	link, util := col.HottestLink("net")
	if link >= 0 {
		li := col.Links()[link]
		fmt.Printf("hottest link: %d->%d at %.1f%% utilization, peak queue %d\n",
			li.Src, li.Dst, util*100, col.QueuePeak.Get(link))
	}
	fmt.Println("wrote", dir)
	return nil
}

// runFaultSweep runs the dynamic fault-injection experiment on the first
// topology of -topos and prints one table per routing mechanism.
func runFaultSweep(counts, topos, pattern, faultPolicy string, rate float64, k, topoSamples int, seed uint64, workers int, pathCache string, csv bool) error {
	params, err := jellyfish.ByName(strings.TrimSpace(strings.Split(topos, ",")[0]))
	if err != nil {
		return err
	}
	policy, err := faults.PolicyByName(faultPolicy)
	if err != nil {
		return err
	}
	var failed []int
	for _, s := range strings.Split(counts, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 0 {
			return fmt.Errorf("bad failed-link count %q", s)
		}
		failed = append(failed, n)
	}
	res, err := exp.FaultRun(exp.FaultRunConfig{
		Params:        params,
		Pattern:       pattern,
		FailedLinks:   failed,
		InjectionRate: rate,
		Policy:        policy,
	}, exp.Scale{TopoSamples: topoSamples, K: k, Seed: seed, Workers: workers, PathCache: pathCache})
	if err != nil {
		return err
	}
	title := fmt.Sprintf("Delivered throughput vs. failed links on %v (%s, load %.2f, policy %s)",
		params, pattern, rate, policy)
	for _, t := range res.Tables(title) {
		if csv {
			fmt.Print(t.CSV())
		} else {
			fmt.Println(t.String())
		}
	}
	return nil
}

func totalFallbacks(r *exp.PathPropsResult) int {
	total := 0
	for _, row := range r.Q {
		for _, q := range row {
			total += q.Fallbacks
		}
	}
	return total
}

func parseTopos(s string) ([]jellyfish.Params, error) {
	var out []jellyfish.Params
	for _, name := range strings.Split(s, ",") {
		p, err := jellyfish.ByName(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "jfnet:", err)
	os.Exit(1)
}
