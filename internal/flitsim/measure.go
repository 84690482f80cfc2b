package flitsim

import (
	"repro/internal/par"
	"repro/internal/xrand"
)

// Run executes the paper's measurement protocol: WarmupCycles of warmup,
// then NumSamples windows of SampleCycles each. It returns the aggregated
// Result.
func (s *Sim) Run() Result {
	var dummyLat, dummyCnt int64
	s.advanceTo(s.clock+int64(s.cfg.WarmupCycles), false, &dummyLat, &dummyCnt)
	if s.tel != nil {
		// Mark the warmup/measurement boundary so windows.csv separates
		// warmup traffic from measured traffic.
		s.tel.Snapshot(s.clock)
	}
	res := Result{
		SampleLatencies: make([]float64, 0, s.cfg.NumSamples),
		SampleDelivered: make([]int64, 0, s.cfg.NumSamples),
	}
	offered := s.cfg.InjectionRate > 0 && s.numTerm > 0
	injectedBefore := s.injected
	for sample := 0; sample < s.cfg.NumSamples; sample++ {
		var latSum, count int64
		s.advanceTo(s.clock+int64(s.cfg.SampleCycles), true, &latSum, &count)
		if s.tel != nil {
			s.tel.Snapshot(s.clock)
		}
		res.SampleDelivered = append(res.SampleDelivered, count)
		var avg float64
		if count > 0 {
			avg = float64(latSum) / float64(count)
		} else if offered {
			// Traffic was offered but nothing got through: the network is
			// past saturation (or the pattern sends nothing, handled by
			// offered).
			res.Saturated = true
		}
		res.SampleLatencies = append(res.SampleLatencies, avg)
		if avg > s.cfg.SatLatency {
			res.Saturated = true
		}
	}
	if s.deliveredMeas > 0 {
		res.AvgLatency = float64(s.latSumMeas) / float64(s.deliveredMeas)
		res.AvgHops = float64(s.hopSumMeas) / float64(s.deliveredMeas)
	}
	// Second saturation criterion: accepted throughput visibly below
	// offered. The paper's latency threshold alone misses regimes where a
	// subset of flows starves behind full queues while the rest stay fast,
	// keeping the average latency of *delivered* packets low even though
	// source queues grow without bound.
	injectedMeas := s.injected - injectedBefore
	if !s.cfg.SaturationLatencyOnly && injectedMeas > 50 && s.deliveredMeas*10 < injectedMeas*9 {
		res.Saturated = true
	}
	measCycles := s.cfg.SampleCycles * s.cfg.NumSamples
	if measCycles > 0 && s.numTerm > 0 {
		res.DeliveredRate = float64(s.deliveredMeas) / (float64(s.numTerm) * float64(measCycles))
	}
	res.P50 = s.latPercentile(0.50)
	res.P95 = s.latPercentile(0.95)
	res.P99 = s.latPercentile(0.99)
	res.Injected = s.injected
	res.Delivered = s.delivered
	res.Dropped = s.dropped
	res.Rerouted = s.rerouted
	res.InFlight = s.injected - s.delivered - s.dropped
	res.MaxHops = s.maxHops
	if s.faults != nil {
		downs, ups, repairs := s.faults.Counters()
		res.FaultEvents = downs + ups
		res.PathRepairs = repairs
	}
	return res
}

// latPercentile reads the q-th latency percentile from the measurement
// histogram (0 if nothing was delivered).
func (s *Sim) latPercentile(q float64) float64 {
	if s.deliveredMeas == 0 {
		return 0
	}
	target := int64(q * float64(s.deliveredMeas))
	if target < 1 {
		target = 1
	}
	var cum int64
	for lat, c := range s.latHist {
		cum += c
		if cum >= target {
			return float64(lat)
		}
	}
	return float64(len(s.latHist) - 1)
}

// Step advances the clock by exactly n cycles without recording
// statistics; exported for tests and interactive exploration. The
// contract holds in both modes: event-driven runs may jump over idle
// spans internally, but Clock() always advances by exactly n and the
// conservation counters reflect everything that happened in those n
// cycles (pinned by TestStepContract).
func (s *Sim) Step(n int) {
	var a, b int64
	s.advanceTo(s.clock+int64(n), false, &a, &b)
}

// Clock returns the current simulation cycle.
func (s *Sim) Clock() int64 { return s.clock }

// Counts returns the conservation counters: packets injected, delivered,
// and still inside the network (source queues, link queues, channels,
// reroute queue). Dropped packets (fault policy) have left the network.
func (s *Sim) Counts() (injected, delivered, inFlight int64) {
	return s.injected, s.delivered, s.injected - s.delivered - s.dropped
}

// Dropped returns the packets discarded because of link failures.
func (s *Sim) Dropped() int64 { return s.dropped }

// QueuedPackets recounts every packet currently buffered or in flight, for
// conservation checking against Counts.
func (s *Sim) QueuedPackets() int64 {
	var total int64
	for i := range s.srcQueue {
		total += int64(s.srcQueue[i].Len())
	}
	for link := int32(0); int(link) < len(s.occ); link++ {
		for vc := int32(0); int(vc) < s.numVC; vc++ {
			total += int64(s.vq.Len(link, vc))
		}
	}
	for _, slot := range s.inflight.slots {
		total += int64(len(slot))
	}
	total += int64(len(s.rerouteQ))
	return total
}

// Sweep runs one simulation per injection rate in parallel (workers <= 0
// selects the default pool) and returns the per-rate results. Each rate
// gets a seed derived from cfg.Seed and the rate index so results are
// reproducible and independent.
func Sweep(cfg Config, rates []float64, workers int) []Result {
	out := make([]Result, len(rates))
	par.For(len(rates), workers, func(i int) {
		c := cfg
		c.InjectionRate = rates[i]
		c.Seed = xrand.Mix64(cfg.Seed ^ (uint64(i)+1)*0x9e3779b97f4a7c15)
		out[i] = New(c).Run()
	})
	return out
}

// Rates builds the list {start, start+step, ...} up to and including stop
// (within 1e-9 tolerance), computed by index so float accumulation cannot
// push a rate past stop.
func Rates(start, stop, step float64) []float64 {
	var out []float64
	for i := 0; ; i++ {
		r := start + float64(i)*step
		if r > stop+1e-9 {
			break
		}
		if r > stop {
			r = stop
		}
		out = append(out, r)
	}
	return out
}

// SaturationThroughput sweeps the rates in ascending order and returns the
// paper's throughput metric: the last injection rate before the network
// saturates. If even the first rate saturates it returns 0; if none
// saturate it returns the highest rate. The per-rate results are returned
// for inspection.
func SaturationThroughput(cfg Config, rates []float64, workers int) (float64, []Result) {
	results := Sweep(cfg, rates, workers)
	sat := 0.0
	for i, r := range results {
		if r.Saturated {
			break
		}
		sat = rates[i]
	}
	return sat, results
}
