package exp

import (
	"fmt"

	"repro/internal/appsim"
	"repro/internal/faults"
	"repro/internal/flitsim"
	"repro/internal/jellyfish"
	"repro/internal/ksp"
	"repro/internal/paths"
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
	policy, err := faults.PolicyByName(cfg.FaultPolicy)
	if err != nil {
		return zero, nil, telemetry.Manifest{}, err
	}
	var sched *faults.Schedule
	s, err := sc.sample(cfg.Params, 0, true, []ksp.Algorithm{cfg.Selector}, func(topo *jellyfish.Topology, ti int) ([]paths.Pair, error) {
		var err error
		if sched, err = faults.ParseSpec(cfg.FaultSpec, topo.G, sc.Seed); err != nil {
			return nil, err
		}
		return FlitConfig{Pattern: cfg.Pattern}.reads(sc, topo, ti, 1, []routing.Mechanism{cfg.Mechanism}, !sched.Empty())
	})
	if err != nil {
		return zero, nil, telemetry.Manifest{}, err
	}
	sampler, _, err := samplerFor(cfg.Pattern, s.topo.NumTerminals(), sc.patternSeed(0, 0))
	if err != nil {
		return zero, nil, telemetry.Manifest{}, err
	}
	col := telemetry.NewCollector()
	c := s.flit(0, cfg.Mechanism, sampler, xrand.Mix64(sc.Seed^0x74656c))
	c.InjectionRate, c.Telemetry, c.Faults, c.FaultPolicy = cfg.Rate, col, sched, policy
	sim, err := flitsim.NewSim(c)
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
	if cfg.Mapping != "linear" && cfg.Mapping != "random" {
		return zero, nil, telemetry.Manifest{}, fmt.Errorf("exp: unknown mapping %q (want linear or random)", cfg.Mapping)
	}
	policy, err := faults.PolicyByName(cfg.FaultPolicy)
	if err != nil {
		return zero, nil, telemetry.Manifest{}, err
	}
	// The replay is AppCommTimes' first: stencil 0 under mapping instance
	// 0 on topology sample 0.
	app := AppConfig{Mapping: cfg.Mapping, BytesPerRank: cfg.BytesPerRank, Stencils: []traffic.StencilKind{cfg.Stencil}}
	var sched *faults.Schedule
	var flows []traffic.SizedFlow
	s, err := sc.sample(cfg.Params, 0, false, []ksp.Algorithm{cfg.Selector}, func(topo *jellyfish.Topology, ti int) ([]paths.Pair, error) {
		var err error
		if sched, err = faults.ParseSpec(cfg.FaultSpec, topo.G, sc.Seed); err != nil {
			return nil, err
		}
		flows = app.flows(sc, ti, 0, 0, topo.NumTerminals())
		r := newReadSet(topo, readsAny([]routing.Mechanism{cfg.Mechanism}, !sched.Empty()))
		r.addFlows(flows)
		return r.pairs(), nil
	})
	if err != nil {
		return zero, nil, telemetry.Manifest{}, err
	}
	col := telemetry.NewCollector()
	res, err := appsim.Run(appsim.Config{
		Topo:        s.topo,
		Paths:       s.dbs[0],
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
