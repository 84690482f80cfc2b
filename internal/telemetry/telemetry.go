// Package telemetry instruments the flit-level and application-level
// simulators with the observability the end-of-run Result structs cannot
// provide: where congestion forms, which links saturate under a given
// selector/mechanism pair, and how queue depths evolve toward saturation.
//
// The building blocks are deliberately simple and lock-free:
//
//   - CounterVec — a fixed-length vector of atomic counters (per-link
//     flits forwarded, stall cycles, queue-depth sums and peaks);
//   - Histogram — fixed-width buckets plus an overflow bucket, with
//     percentile extraction (p50/p90/p99);
//   - Collector — bundles the vectors and histograms for one run and
//     takes periodic window snapshots, so the approach to saturation is
//     visible over time, not just in aggregate.
//
// All updates use atomic operations, so a Collector may be shared across
// goroutines (e.g. sub-simulations run under par.For). The simulators
// guard every hook behind a nil check: a run with no Collector attached
// pays nothing and allocates nothing.
//
// Export (export.go) writes links.csv, latency_hist.json, queue_hist.json,
// windows.csv, choices.csv and a manifest.json recording the exact run
// configuration, so any figure built from the files can be traced back to
// the topology parameters, selector, mechanism and seed that produced it.
// docs/TELEMETRY.md documents every column and bucket boundary.
package telemetry

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// CounterVec is a fixed-length vector of independently updatable
// counters. All methods are safe for concurrent use.
type CounterVec struct {
	v []atomic.Int64
}

// NewCounterVec returns a vector of n zeroed counters.
func NewCounterVec(n int) *CounterVec {
	return &CounterVec{v: make([]atomic.Int64, n)}
}

// Len returns the number of counters.
func (c *CounterVec) Len() int { return len(c.v) }

// Inc adds 1 to counter i.
func (c *CounterVec) Inc(i int) { c.v[i].Add(1) }

// Add adds d to counter i.
func (c *CounterVec) Add(i int, d int64) { c.v[i].Add(d) }

// Get returns the current value of counter i.
func (c *CounterVec) Get(i int) int64 { return c.v[i].Load() }

// SetMax raises counter i to x if x is larger (an atomic running
// maximum).
func (c *CounterVec) SetMax(i int, x int64) {
	for {
		cur := c.v[i].Load()
		if x <= cur || c.v[i].CompareAndSwap(cur, x) {
			return
		}
	}
}

// Total returns the sum over all counters.
func (c *CounterVec) Total() int64 {
	var t int64
	for i := range c.v {
		t += c.v[i].Load()
	}
	return t
}

// Link kinds, as exported in the "kind" column of links.csv.
const (
	// KindNet is a switch-to-switch network link.
	KindNet = "net"
	// KindInject is a terminal's injection link (terminal → switch).
	KindInject = "inj"
	// KindEject is a terminal's ejection link (switch → terminal).
	KindEject = "ej"
)

// LinkInfo labels one instrumented link. For network links Src and Dst
// are switch ids; for injection links Src is the terminal and Dst its
// switch; for ejection links Src is the switch and Dst the terminal.
type LinkInfo struct {
	Kind string
	Src  int
	Dst  int
}

// Config sizes a Collector for one simulation run. The simulator — not
// the caller — fills it in via Collector.Init, because only the simulator
// knows its link layout and histogram caps.
type Config struct {
	// Links labels every instrumented link, in link-id order.
	Links []LinkInfo
	// LatencyCap is the highest tracked packet latency in cycles;
	// observations above it land in the overflow bucket. 0 disables the
	// latency histogram (the application simulator does not track
	// per-packet latency).
	LatencyCap int64
	// QueueCap is the highest tracked per-link queue depth; deeper
	// samples land in the overflow bucket. 0 disables queue sampling.
	QueueCap int64
	// PathChoices sizes the per-candidate-index choice counter (how
	// often the mechanism picked candidate path i). 0 disables it;
	// indices at or above the size are clamped into the last counter.
	PathChoices int
}

// Window is one periodic snapshot of the run's cumulative totals. Deltas
// between consecutive windows give per-window rates; export.go computes
// them when writing windows.csv.
type Window struct {
	// Cycle is the simulation clock at the snapshot.
	Cycle int64
	// Flits is the cumulative flits forwarded over all links.
	Flits int64
	// Delivered is the cumulative measured deliveries (latency
	// observations).
	Delivered int64
	// LatencySum is the cumulative sum of observed latencies.
	LatencySum int64
	// FaultEvents is the cumulative count of applied link-down/link-up
	// events; Drops, Reroutes and Repairs are the cumulative fault
	// consequences (packets discarded, packets moved to a surviving
	// path, path-set recomputations).
	FaultEvents int64
	Drops       int64
	Reroutes    int64
	Repairs     int64
	// DownLinks is the instantaneous number of failed links at the
	// snapshot (a gauge, not a cumulative total).
	DownLinks int64
}

// Collector gathers one run's telemetry. Create it empty with
// NewCollector, hand it to a simulator (which calls Init), and export
// after the run. All recording methods are lock-free; Snapshot takes a
// mutex but is called only at window boundaries.
type Collector struct {
	links []LinkInfo

	// Forwarded counts flits sent per link; Stalled counts cycles a
	// link's head flit was blocked by downstream backpressure (for
	// injection links: cycles the terminal's source queue head could not
	// enter the network).
	Forwarded *CounterVec
	Stalled   *CounterVec
	// QueueSum accumulates each link's committed occupancy once per
	// sampled cycle; QueuePeak tracks its maximum. Average depth is
	// QueueSum / Cycles.
	QueueSum  *CounterVec
	QueuePeak *CounterVec

	// Latency is the per-packet latency histogram (nil when disabled).
	Latency *Histogram
	// Queue is the queue-depth distribution over all (link, sampled
	// cycle) pairs (nil when disabled).
	Queue *Histogram
	// PathChoice counts, per candidate index, how often the routing
	// mechanism picked that candidate (nil when disabled).
	PathChoice *CounterVec

	cycles atomic.Int64

	// Fault-injection telemetry (see internal/faults). Plain scalar
	// atomics rather than vectors, so they work even on a collector
	// whose Init has not run yet.
	faultEvents   atomic.Int64
	faultDrops    atomic.Int64
	faultReroutes atomic.Int64
	faultRepairs  atomic.Int64
	linksDown     atomic.Int64 // gauge: currently failed links

	mu      sync.Mutex
	windows []Window
}

// NewCollector returns an empty Collector ready to be attached to a
// simulator configuration.
func NewCollector() *Collector { return &Collector{} }

// Init sizes the collector. The simulator calls it exactly once at
// construction; a second Init panics, because merging two runs into one
// collector would silently corrupt both.
func (c *Collector) Init(cfg Config) {
	if c.Ready() {
		panic("telemetry: Collector already initialized")
	}
	n := len(cfg.Links)
	c.links = cfg.Links
	c.Forwarded = NewCounterVec(n)
	c.Stalled = NewCounterVec(n)
	c.QueueSum = NewCounterVec(n)
	c.QueuePeak = NewCounterVec(n)
	if cfg.LatencyCap > 0 {
		c.Latency = NewHistogram(1, int(cfg.LatencyCap))
	}
	if cfg.QueueCap > 0 {
		c.Queue = NewHistogram(1, int(cfg.QueueCap))
	}
	if cfg.PathChoices > 0 {
		c.PathChoice = NewCounterVec(cfg.PathChoices)
	}
}

// Ready reports whether Init has run.
func (c *Collector) Ready() bool { return c.Forwarded != nil }

// Links returns the link labels, in link-id order.
func (c *Collector) Links() []LinkInfo { return c.links }

// Cycles returns the number of sampled cycles.
func (c *Collector) Cycles() int64 { return c.cycles.Load() }

// CountForward records one flit sent on the link.
func (c *Collector) CountForward(link int32) { c.Forwarded.Inc(int(link)) }

// CountStall records one blocked cycle on the link.
func (c *Collector) CountStall(link int32) { c.Stalled.Inc(int(link)) }

// ObserveLatency records one delivered packet's latency in cycles.
func (c *Collector) ObserveLatency(lat int64) { c.Latency.Observe(lat) }

// CountChoice records that the routing mechanism picked candidate path
// idx; indices beyond the configured size clamp into the last counter.
func (c *Collector) CountChoice(idx int) {
	if idx >= c.PathChoice.Len() {
		idx = c.PathChoice.Len() - 1
	}
	c.PathChoice.Inc(idx)
}

// CountFaultEvents records n applied link-down/link-up events.
func (c *Collector) CountFaultEvents(n int64) { c.faultEvents.Add(n) }

// CountFaultDrop records one packet discarded because of a link failure.
func (c *Collector) CountFaultDrop() { c.faultDrops.Add(1) }

// CountFaultReroute records one packet requeued onto a surviving path.
func (c *Collector) CountFaultReroute() { c.faultReroutes.Add(1) }

// CountFaultRepair records one path-set recomputation on the
// failed-edge-filtered graph.
func (c *Collector) CountFaultRepair() { c.faultRepairs.Add(1) }

// SetLinksDown records the current number of failed links (a gauge).
func (c *Collector) SetLinksDown(n int64) { c.linksDown.Store(n) }

// SampleQueues records one cycle's committed occupancy for every link in
// occ (occ may cover a prefix of the links; trailing pseudo-links keep
// only stall counters) and advances the sampled-cycle count.
func (c *Collector) SampleQueues(occ []int32) {
	for i, o := range occ {
		d := int64(o)
		if d > 0 {
			c.QueueSum.Add(i, d)
			c.QueuePeak.SetMax(i, d)
		}
		if c.Queue != nil {
			c.Queue.Observe(d)
		}
	}
	c.cycles.Add(1)
}

// Snapshot appends a window capturing the run's cumulative totals at the
// given cycle. Simulators call it at measurement-window boundaries.
func (c *Collector) Snapshot(cycle int64) {
	w := Window{
		Cycle:       cycle,
		Flits:       c.Forwarded.Total(),
		FaultEvents: c.faultEvents.Load(),
		Drops:       c.faultDrops.Load(),
		Reroutes:    c.faultReroutes.Load(),
		Repairs:     c.faultRepairs.Load(),
		DownLinks:   c.linksDown.Load(),
	}
	if c.Latency != nil {
		w.Delivered = c.Latency.Count()
		w.LatencySum = c.Latency.Sum()
	}
	c.mu.Lock()
	c.windows = append(c.windows, w)
	c.mu.Unlock()
}

// Windows returns a copy of the snapshots taken so far.
func (c *Collector) Windows() []Window {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Window, len(c.windows))
	copy(out, c.windows)
	return out
}

// Utilization returns link i's fraction of sampled cycles spent
// forwarding a flit (0 when no cycles were sampled).
func (c *Collector) Utilization(i int) float64 {
	cy := c.cycles.Load()
	if cy == 0 {
		return 0
	}
	return float64(c.Forwarded.Get(i)) / float64(cy)
}

// AvgQueue returns link i's mean sampled queue depth.
func (c *Collector) AvgQueue(i int) float64 {
	cy := c.cycles.Load()
	if cy == 0 {
		return 0
	}
	return float64(c.QueueSum.Get(i)) / float64(cy)
}

// HottestLink returns the index of the link with the most forwarded
// flits, restricted to the given kind ("" for any), and its utilization.
// It returns index -1 when no link matches.
func (c *Collector) HottestLink(kind string) (int, float64) {
	best, bestFlits := -1, int64(-1)
	for i, li := range c.links {
		if kind != "" && li.Kind != kind {
			continue
		}
		if f := c.Forwarded.Get(i); f > bestFlits {
			best, bestFlits = i, f
		}
	}
	if best < 0 {
		return -1, 0
	}
	return best, c.Utilization(best)
}

// String summarizes the collector for logs.
func (c *Collector) String() string {
	if !c.Ready() {
		return "telemetry.Collector(uninitialized)"
	}
	return fmt.Sprintf("telemetry.Collector(%d links, %d cycles, %d flits)",
		len(c.links), c.cycles.Load(), c.Forwarded.Total())
}
