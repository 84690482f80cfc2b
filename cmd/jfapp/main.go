// Command jfapp reproduces the application-simulation tables:
//
//	jfapp -mapping linear   # Table V
//	jfapp -mapping random   # Table VI
//
// It replays the four Stencil workloads (2DNN, 2DNNdiag, 3DNN, 3DNNdiag;
// 15 MB per rank by default) over the selected topology and reports the
// communication time of rEDKSP(k) alongside KSP(k) and rKSP(k) with
// improvement percentages, exactly as the paper lays the tables out.
//
// With -telemetry it runs one instrumented replay of a single stencil and
// exports per-link counters, path-choice counters and injection-stall
// counters (see docs/TELEMETRY.md):
//
//	jfapp -telemetry out/ -selector rEDKSP -stencils 2DNNdiag -topo small
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cliflags"
	"repro/internal/exp"
	"repro/internal/jellyfish"
	"repro/internal/ksp"
	"repro/internal/routing"
	"repro/internal/traffic"
)

func main() {
	var (
		topoName     = flag.String("topo", "small", "topology: small, medium or large (the paper uses medium)")
		mapping      = flag.String("mapping", "linear", "process-to-node mapping: linear or random")
		mechanism    = cliflags.Mechanism("ksp-adaptive")
		stencils     = flag.String("stencils", "", "comma-separated stencil subset (default all four)")
		bytesPerRank = flag.Int64("bytes-per-rank", traffic.DefaultTotalBytes, "bytes each rank sends")
		k            = flag.Int("k", 8, "paths per switch pair")
		topoSamples  = flag.Int("topo-samples", 1, "RRG instances")
		mapSamples   = flag.Int("map-samples", 3, "random-mapping instances per RRG instance")
		seed         = flag.Uint64("seed", 1, "experiment seed")
		workers      = flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
		csv          = flag.Bool("csv", false, "emit CSV instead of aligned text")
		tel          = cliflags.TelemetryFlags("one instrumented replay (first of -stencils, default 2DNN)")
		faultFlags   = cliflags.FaultFlags()
		pathCache    = cliflags.PathCache()
		prof         = cliflags.ProfileFlags()
	)
	flag.Parse()

	if *k < 1 {
		fatal(fmt.Errorf("-k must be at least 1, got %d", *k))
	}
	if err := prof.Start(); err != nil {
		fatal(err)
	}
	defer prof.Stop()
	if *bytesPerRank <= 0 {
		fatal(fmt.Errorf("-bytes-per-rank must be positive, got %d", *bytesPerRank))
	}
	params, err := jellyfish.ByName(*topoName)
	if err != nil {
		fatal(err)
	}

	mech, err := routing.ByName(*mechanism)
	if err != nil {
		fatal(err)
	}
	cfg := exp.AppConfig{
		Params:       params,
		Mapping:      *mapping,
		BytesPerRank: *bytesPerRank,
		Mechanism:    mech,
		FaultSpec:    *faultFlags.Spec,
		FaultPolicy:  *faultFlags.Policy,
	}
	if *stencils != "" {
		for _, name := range strings.Split(*stencils, ",") {
			kind, kerr := traffic.StencilByName(strings.TrimSpace(name))
			if kerr != nil {
				fatal(kerr)
			}
			cfg.Stencils = append(cfg.Stencils, kind)
		}
	}

	if *tel.Dir != "" {
		alg, err := ksp.ByName(*tel.Selector)
		if err != nil {
			fatal(err)
		}
		kind := traffic.Stencil2DNN
		if len(cfg.Stencils) > 0 {
			kind = cfg.Stencils[0]
		}
		res, col, manifest, err := exp.AppTelemetryRun(exp.AppTelemetryConfig{
			Params:       params,
			Selector:     alg,
			Mechanism:    mech,
			Stencil:      kind,
			Mapping:      *mapping,
			BytesPerRank: *bytesPerRank,
			FaultSpec:    *faultFlags.Spec,
			FaultPolicy:  *faultFlags.Policy,
		}, exp.Scale{K: *k, Seed: *seed, Workers: *workers, PathCache: *pathCache})
		if err != nil {
			fatal(err)
		}
		if err := col.Export(*tel.Dir, manifest); err != nil {
			fatal(err)
		}
		fmt.Printf("%v %s/%s %s mapping %s: %.2f ms, %d packets\n",
			params, alg, mech.Name(), *mapping, kind, res.Seconds*1e3, res.Packets)
		if res.FaultEvents > 0 {
			fmt.Printf("faults: %d events, %d dropped, %d rerouted, %d path repairs\n",
				res.FaultEvents, res.Dropped, res.Rerouted, res.PathRepairs)
		}
		fmt.Println("wrote", *tel.Dir)
		return
	}

	res, err := exp.AppCommTimes(cfg, exp.Scale{
		TopoSamples:    *topoSamples,
		PatternSamples: *mapSamples,
		K:              *k,
		Seed:           *seed,
		Workers:        *workers,
		PathCache:      *pathCache,
	})
	if err != nil {
		fatal(err)
	}
	title := fmt.Sprintf("Communication time, %s mapping on %v (%s, %d bytes/rank)",
		*mapping, params, mech.Name(), *bytesPerRank)
	t := res.Table(title)
	if *csv {
		fmt.Print(t.CSV())
	} else {
		fmt.Println(t.String())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "jfapp:", err)
	os.Exit(1)
}
