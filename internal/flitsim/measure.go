package flitsim

import (
	"fmt"
	"math"

	"repro/internal/par"
	"repro/internal/xrand"
)

// Run executes the paper's measurement protocol: WarmupCycles of warmup,
// then NumSamples windows of SampleCycles each. It returns the aggregated
// Result.
func (s *Sim) Run() Result {
	var dummyLat, dummyCnt int64
	s.advanceTo(s.clock+int64(s.warmup), false, &dummyLat, &dummyCnt)
	if s.tel != nil {
		// Mark the warmup/measurement boundary so windows.csv separates
		// warmup traffic from measured traffic.
		s.tel.Snapshot(s.clock)
	}
	res := Result{
		SampleLatencies: make([]float64, 0, s.samples),
		SampleDelivered: make([]int64, 0, s.samples),
	}
	offered := s.cfg.InjectionRate > 0 && s.numTerm > 0
	injectedBefore := s.injected
	for sample := 0; sample < s.samples; sample++ {
		var latSum, count int64
		s.advanceTo(s.clock+SampleCycles, true, &latSum, &count)
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
		if avg > satLatency {
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
	if s.numTerm > 0 {
		res.DeliveredRate = float64(s.deliveredMeas) / (float64(s.numTerm) * float64(SampleCycles*s.samples))
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

// advanceTo steps one cycle at a time until the clock reaches until, so
// measurement and telemetry windows end exactly on their boundary cycle.
func (s *Sim) advanceTo(until int64, measuring bool, sampleLatSum, sampleCount *int64) {
	for s.clock < until {
		s.step(measuring, sampleLatSum, sampleCount)
	}
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

// runRate runs cfg at rates[i]. The run's seed is derived from cfg.Seed
// and the rate index, so each rate is reproducible and independent of the
// others, and Sweep and SaturationThroughput make the same run for it.
func runRate(cfg Config, rates []float64, i int) Result {
	cfg.InjectionRate = rates[i]
	cfg.Seed = xrand.Mix64(cfg.Seed ^ (uint64(i)+1)*0x9e3779b97f4a7c15)
	return New(cfg).Run()
}

// Sweep runs one simulation per injection rate in parallel (workers <= 0
// selects the default pool) and returns the per-rate results.
func Sweep(cfg Config, rates []float64, workers int) []Result {
	out := make([]Result, len(rates))
	par.For(len(rates), workers, func(i int) { out[i] = runRate(cfg, rates, i) })
	return out
}

// maxRateSteps bounds an offered-load sweep: Rates returns at most
// maxRateSteps+1 rates.
const maxRateSteps = 10000

// Rates builds the list {start, start+step, ...} up to and including stop
// (within 1e-9 tolerance), computed by index so float accumulation cannot
// push a rate past stop. It panics with ValidateRates' error on arguments
// that would not make a bounded sweep; check them with ValidateRates
// first where they come from a user.
func Rates(start, stop, step float64) []float64 {
	out, err := rates(start, stop, step)
	if err != nil {
		panic(err)
	}
	return out
}

// ValidateRates reports whether Rates accepts its arguments: step must be
// positive and finite, start and stop finite, and the sweep at most
// 10,000 steps long: (stop-start)/step <= 10,000, counting the 1e-9
// tolerance at stop and float rounding.
func ValidateRates(start, stop, step float64) error {
	_, err := rates(start, stop, step)
	return err
}

func rates(start, stop, step float64) ([]float64, error) {
	switch {
	case !(step > 0) || math.IsInf(step, 1):
		return nil, fmt.Errorf("flitsim: rate step %g out of range: it must be positive and finite", step)
	case math.IsNaN(start) || math.IsInf(start, 0):
		return nil, fmt.Errorf("flitsim: rate start %g out of range: it must be finite", start)
	case math.IsNaN(stop) || math.IsInf(stop, 0):
		return nil, fmt.Errorf("flitsim: rate stop %g out of range: it must be finite", stop)
	case (stop-start)/step > maxRateSteps:
		return nil, fmt.Errorf("flitsim: rate step %g out of range: [%g, %g] would take more than %d steps",
			step, start, stop, maxRateSteps)
	}
	var out []float64
	for i := 0; ; i++ {
		r := start + float64(i)*step
		if r > stop+1e-9 {
			return out, nil
		}
		if i > maxRateSteps {
			// Reachable only when the step is below the rounding
			// granularity of start or within the tolerance at stop.
			return nil, fmt.Errorf("flitsim: rate step %g out of range: [%g, %g] would take more than %d steps",
				step, start, stop, maxRateSteps)
		}
		if r > stop {
			r = stop
		}
		out = append(out, r)
	}
}

// SaturationThroughput is the search behind the paper's throughput
// metric: it runs the rates in ascending order, each as Sweep runs it, and
// stops at the first saturated run. It returns the last rate before that
// run (0 if even the first rate saturates, the highest rate if none does)
// and the runs it made, one per rate up to and including the first
// saturated one. The scan is sequential; callers run many searches in
// parallel instead (exp's job grid).
func SaturationThroughput(cfg Config, rates []float64) (float64, []Result) {
	sat := 0.0
	var runs []Result
	for i := range rates {
		r := runRate(cfg, rates, i)
		runs = append(runs, r)
		if r.Saturated {
			break
		}
		sat = rates[i]
	}
	return sat, runs
}
