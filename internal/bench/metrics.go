package bench

// Metric describes one reported number. Bound is the share of the parent
// commit's median by which an end-to-end metric may worsen before a
// change counts as a regression; per-layer metrics carry no bound.
type Metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// EndToEnd lists the metrics every untraced run reports, whatever the
// workload; each workload defines its own operation (see README.md).
// BENCHMARK.json lists the same names, units, directions and bounds
// (pinned by TestBenchmarkJSONMatchesCatalogue).
var EndToEnd = []Metric{
	{"setup_s", "s", "lower", 0.25},
	{"throughput", "ops/s", "higher", 0.25},
	{"latency_p50_us", "us", "lower", 0.25},
	{"memory_mb", "MiB", "lower", 0.1},
}

// PerLayer lists the metrics every traced run reports. A workload reports
// 0 for a layer it does not exercise.
var PerLayer = []Metric{
	{"jellyfish.build_s", "s", "lower", 0},
	{"graph.metrics_s", "s", "lower", 0},
	{"paths.build_s", "s", "lower", 0},
	{"paths.build_s.KSP", "s", "lower", 0},
	{"paths.build_s.rEDKSP", "s", "lower", 0},
	{"paths.parallel_eff", "ratio", "higher", 0},
	{"paths.cache_write_s", "s", "lower", 0},
	{"paths.cache_bytes", "bytes", "lower", 0},
	{"paths.cache_read_s", "s", "lower", 0},
	{"paths.analyze_s", "s", "lower", 0},
	{"paths.bytes_per_pair", "bytes", "lower", 0},
	{"paths.lookups", "count", "lower", 0},
	{"paths.lookup_ns", "ns", "lower", 0},
	{"ksp.paths_us_p50.KSP", "us", "lower", 0},
	{"ksp.paths_us_p99.KSP", "us", "lower", 0},
	{"ksp.paths_us_p50.rEDKSP", "us", "lower", 0},
	{"ksp.paths_us_p99.rEDKSP", "us", "lower", 0},
	{"ksp.fallbacks.rEDKSP", "count", "lower", 0},
	{"routing.choose_calls", "count", "lower", 0},
	{"routing.choose_ns", "ns", "lower", 0},
	{"routing.choose_share", "ratio", "lower", 0},
	{"routing.observe_ns", "ns", "lower", 0},
	{"flitsim.runs", "count", "higher", 0},
	{"flitsim.saturated_runs", "count", "lower", 0},
	{"flitsim.sim_cycles", "count", "higher", 0},
	{"flitsim.packets", "count", "higher", 0},
	{"flitsim.new_s", "s", "lower", 0},
	{"flitsim.run_self_s", "s", "lower", 0},
	{"flitsim.ns_per_cycle", "ns", "lower", 0},
	{"flitsim.ns_per_packet", "ns", "lower", 0},
	{"par.busy_frac", "ratio", "higher", 0},
	{"appsim.runs", "count", "higher", 0},
	{"appsim.sim_cycles", "count", "higher", 0},
	{"appsim.packets", "count", "higher", 0},
	{"appsim.run_self_s", "s", "lower", 0},
	{"appsim.ns_per_packet", "ns", "lower", 0},
	{"traffic.stencil_s", "s", "lower", 0},
	{"serve.daemon_cpu_s", "s", "lower", 0},
	{"serve.daemon_peak_rss_mb", "MiB", "lower", 0},
	{"serve.cpu_ns_per_route", "ns", "lower", 0},
	{"serve.cpu_ns_per_lookup.binary", "ns", "lower", 0},
	{"serve.cpu_ns_per_lookup.json", "ns", "lower", 0},
	{"serve.cpu_ns_per_lookup.sweep", "ns", "lower", 0},
	{"serve.service_p50_us", "us", "lower", 0},
	{"serve.service_p99_us", "us", "lower", 0},
	{"serve.wait_us_p50", "us", "lower", 0},
	{"serve.requests", "count", "higher", 0},
	{"serve.route_lookups", "count", "higher", 0},
	{"serve.route_ops_per_s", "ops/s", "higher", 0},
	{"serve.json_batch_lookups_per_s", "lookups/s", "higher", 0},
	{"serve.sweep_pairs_per_s", "pairs/s", "higher", 0},
	{"serve.decode_ns.binary", "ns", "lower", 0},
	{"serve.decode_ns.json", "ns", "lower", 0},
	{"serve.encode_ns.binary", "ns", "lower", 0},
	{"serve.encode_ns.json", "ns", "lower", 0},
	{"client.rtt_p99_us", "us", "lower", 0},
	{"client.rtt_p999_us", "us", "lower", 0},
	{"client.samples", "count", "higher", 0},
	{"loadgen.cpu_frac", "ratio", "lower", 0},
	{"process.peak_rss_mb", "MiB", "lower", 0},
	{"jfbench.check_frac", "ratio", "lower", 0},
	{"trace.overhead_frac", "ratio", "lower", 0},
	{"trace.spans", "count", "lower", 0},
}

// metricByName finds a metric in either list.
func metricByName(name string) (Metric, bool) {
	for _, list := range [][]Metric{EndToEnd, PerLayer} {
		for _, m := range list {
			if m.Name == name {
				return m, true
			}
		}
	}
	return Metric{}, false
}
