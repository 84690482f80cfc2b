package exp

import (
	"fmt"

	"repro/internal/appsim"
	"repro/internal/faults"
	"repro/internal/flitsim"
	"repro/internal/jellyfish"
	"repro/internal/ksp"
	"repro/internal/routing"
	"repro/internal/telemetry"
	"repro/internal/traffic"
	"repro/internal/xrand"
)

// Instrumented single runs: where the table/figure experiments aggregate
// many simulations into one number, these run exactly one simulation with
// a telemetry.Collector attached, so per-link utilization, queue-depth
// evolution and latency distributions can be exported and inspected.
// cmd/jfnet and cmd/jfapp surface them behind the -telemetry flag.

// FlitTelemetryConfig parameterizes one instrumented cycle-level run.
type FlitTelemetryConfig struct {
	Params jellyfish.Params
	// Selector is the path-selection scheme.
	Selector ksp.Algorithm
	// Mechanism is the per-packet routing mechanism.
	Mechanism routing.Mechanism
	// Pattern is "permutation", "shift" or "uniform".
	Pattern string
	// Rate is the offered load in [0, 1].
	Rate float64
	// FaultSpec optionally injects link failures: "", "none",
	// "random:<n>@<cycle>[,...]" or a schedule file path (see
	// faults.ParseSpec).
	FaultSpec string
	// FaultPolicy names the fault policy ("" = reroute with repair).
	FaultPolicy string
}

// FlitTelemetryRun executes one cycle-level simulation with telemetry
// attached, using the same topology/path/traffic derivation as the
// figure experiments (so a telemetry run at the same Scale.Seed sees the
// same instance the figures did). It returns the run's Result, the
// populated collector, and a manifest describing the configuration.
func FlitTelemetryRun(cfg FlitTelemetryConfig, sc Scale) (flitsim.Result, *telemetry.Collector, telemetry.Manifest, error) {
	var zero flitsim.Result
	sc, err := sc.withDefaults()
	if err != nil {
		return zero, nil, telemetry.Manifest{}, err
	}
	if !(cfg.Rate > 0 && cfg.Rate <= 1) { // NaN fails too
		return zero, nil, telemetry.Manifest{}, fmt.Errorf("exp: injection rate %v outside (0, 1]", cfg.Rate)
	}
	if cfg.Mechanism == nil {
		cfg.Mechanism = routing.KSPAdaptive()
	}
	topo, err := sc.buildTopo(cfg.Params, 0)
	if err != nil {
		return zero, nil, telemetry.Manifest{}, err
	}
	sampler, _, err := samplerFor(cfg.Pattern, topo.NumTerminals(), sc.patternSeed(0, 0))
	if err != nil {
		return zero, nil, telemetry.Manifest{}, err
	}
	sched, err := faults.ParseSpec(cfg.FaultSpec, topo.G, sc.Seed)
	if err != nil {
		return zero, nil, telemetry.Manifest{}, err
	}
	policy, err := faults.PolicyByName(cfg.FaultPolicy)
	if err != nil {
		return zero, nil, telemetry.Manifest{}, err
	}
	numVC := sc.numVCs(topo)
	reads, err := FlitConfig{Pattern: cfg.Pattern}.reads(sc, topo, 0, 1, []routing.Mechanism{cfg.Mechanism}, !sched.Empty())
	if err != nil {
		return zero, nil, telemetry.Manifest{}, err
	}
	db, err := sc.pathDB(topo, cfg.Selector, 0, reads)
	if err != nil {
		return zero, nil, telemetry.Manifest{}, err
	}
	col := telemetry.NewCollector()
	sim, err := flitsim.NewSim(flitsim.Config{
		Topo:          topo,
		Paths:         db,
		Mechanism:     cfg.Mechanism,
		Traffic:       sampler,
		InjectionRate: cfg.Rate,
		NumVCs:        numVC,
		Seed:          xrand.Mix64(sc.Seed ^ 0x74656c),
		Telemetry:     col,
		Faults:        sched,
		FaultPolicy:   policy,
	})
	if err != nil {
		return zero, nil, telemetry.Manifest{}, err
	}
	res := sim.Run()
	manifest := telemetry.Manifest{
		Tool:          "jfnet",
		Topology:      cfg.Params.String(),
		N:             cfg.Params.N,
		X:             cfg.Params.X,
		Y:             cfg.Params.Y,
		Selector:      cfg.Selector.String(),
		Mechanism:     cfg.Mechanism.Name(),
		Pattern:       cfg.Pattern,
		K:             sc.K,
		Seed:          sc.Seed,
		InjectionRate: cfg.Rate,
	}
	return res, col, manifest, nil
}

// AppTelemetryConfig parameterizes one instrumented application-level
// run.
type AppTelemetryConfig struct {
	Params jellyfish.Params
	// Selector is the path-selection scheme.
	Selector ksp.Algorithm
	// Mechanism is the per-packet routing mechanism.
	Mechanism routing.Mechanism
	// Stencil is the workload kind.
	Stencil traffic.StencilKind
	// Mapping is "linear" or "random".
	Mapping string
	// BytesPerRank is the per-rank send volume (default 15 MB).
	BytesPerRank int64
	// FaultSpec optionally injects link failures (see faults.ParseSpec).
	FaultSpec string
	// FaultPolicy names the fault policy ("" = reroute with repair).
	FaultPolicy string
}

// AppTelemetryRun replays one stencil workload with telemetry attached,
// deriving topology, paths and mapping exactly as AppCommTimes does for
// its first sample.
func AppTelemetryRun(cfg AppTelemetryConfig, sc Scale) (appsim.Result, *telemetry.Collector, telemetry.Manifest, error) {
	var zero appsim.Result
	sc, err := sc.withDefaults()
	if err != nil {
		return zero, nil, telemetry.Manifest{}, err
	}
	if cfg.Mechanism == nil {
		cfg.Mechanism = routing.KSPAdaptive()
	}
	if cfg.BytesPerRank == 0 {
		cfg.BytesPerRank = traffic.DefaultTotalBytes
	}
	topo, err := sc.buildTopo(cfg.Params, 0)
	if err != nil {
		return zero, nil, telemetry.Manifest{}, err
	}
	nTerms := topo.NumTerminals()
	var mapping traffic.Mapping
	switch cfg.Mapping {
	case "linear":
		mapping = traffic.LinearMapping(nTerms)
	case "random":
		mapping = traffic.RandomMapping(nTerms, sc.patternSeed(0, 0))
	default:
		return zero, nil, telemetry.Manifest{}, fmt.Errorf("exp: unknown mapping %q (want linear or random)", cfg.Mapping)
	}
	w := traffic.Stencil(traffic.StencilConfig{
		Kind: cfg.Stencil, Ranks: nTerms, TotalBytes: cfg.BytesPerRank,
	})
	sched, err := faults.ParseSpec(cfg.FaultSpec, topo.G, sc.Seed)
	if err != nil {
		return zero, nil, telemetry.Manifest{}, err
	}
	policy, err := faults.PolicyByName(cfg.FaultPolicy)
	if err != nil {
		return zero, nil, telemetry.Manifest{}, err
	}
	flows := w.Apply(mapping)
	reads := newReadSet(topo, readsAny([]routing.Mechanism{cfg.Mechanism}, !sched.Empty()))
	reads.addFlows(flows)
	db, err := sc.pathDB(topo, cfg.Selector, 0, reads.pairs())
	if err != nil {
		return zero, nil, telemetry.Manifest{}, err
	}
	col := telemetry.NewCollector()
	res, err := appsim.Run(appsim.Config{
		Topo:        topo,
		Paths:       db,
		Mechanism:   cfg.Mechanism,
		Flows:       flows,
		Seed:        xrand.Mix64(sc.Seed ^ 0x617070),
		Telemetry:   col,
		Faults:      sched,
		FaultPolicy: policy,
	})
	if err != nil {
		return zero, nil, telemetry.Manifest{}, err
	}
	manifest := telemetry.Manifest{
		Tool:      "jfapp",
		Topology:  cfg.Params.String(),
		N:         cfg.Params.N,
		X:         cfg.Params.X,
		Y:         cfg.Params.Y,
		Selector:  cfg.Selector.String(),
		Mechanism: cfg.Mechanism.Name(),
		Mapping:   cfg.Mapping,
		Stencil:   cfg.Stencil.String(),
		K:         sc.K,
		Seed:      sc.Seed,
	}
	return res, col, manifest, nil
}
