package telemetry

import "sync/atomic"

// Histogram is a fixed-bucket histogram over non-negative int64
// observations. Bucket i counts values in [i*width, (i+1)*width); values
// at or above numBuckets*width land in a dedicated overflow bucket, so
// deep saturation reads as "at least the cap" rather than being lost.
// All methods are safe for concurrent use.
type Histogram struct {
	width   int64
	counts  []atomic.Int64 // len numBuckets+1; last is overflow
	sum     atomic.Int64
	samples atomic.Int64
}

// NewHistogram returns a histogram of numBuckets buckets of the given
// width (both must be positive; width is clamped to 1).
func NewHistogram(width int64, numBuckets int) *Histogram {
	if width < 1 {
		width = 1
	}
	if numBuckets < 1 {
		numBuckets = 1
	}
	return &Histogram{width: width, counts: make([]atomic.Int64, numBuckets+1)}
}

// Width returns the bucket width.
func (h *Histogram) Width() int64 { return h.width }

// NumBuckets returns the in-range bucket count (excluding overflow).
func (h *Histogram) NumBuckets() int { return len(h.counts) - 1 }

// Cap returns the lowest value that lands in the overflow bucket.
func (h *Histogram) Cap() int64 { return int64(h.NumBuckets()) * h.width }

// Observe records one value. Negative values clamp to 0.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	b := v / h.width
	if b >= int64(h.NumBuckets()) {
		b = int64(h.NumBuckets())
	}
	h.counts[b].Add(1)
	h.sum.Add(v)
	h.samples.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.samples.Load() }

// Sum returns the sum of all observed values (uncapped).
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Mean returns the mean observed value (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.samples.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Overflow returns the overflow-bucket count.
func (h *Histogram) Overflow() int64 { return h.counts[len(h.counts)-1].Load() }

// Counts returns a snapshot of the in-range bucket counts (the overflow
// bucket is reported separately by Overflow).
func (h *Histogram) Counts() []int64 {
	out := make([]int64, h.NumBuckets())
	for i := range out {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Summary is a compact percentile snapshot of a histogram, the shape
// service endpoints report (jfserve's stats response embeds one for its
// request-service latency).
type Summary struct {
	Count    int64
	Mean     float64
	P50      float64
	P90      float64
	P99      float64
	Overflow int64
}

// Summarize snapshots the histogram's count, mean and p50/p90/p99. The
// histogram may be observed concurrently; the snapshot is then
// approximate in the usual racy-read sense, never invalid.
func (h *Histogram) Summarize() Summary {
	return Summary{
		Count:    h.Count(),
		Mean:     h.Mean(),
		P50:      h.Percentile(0.50),
		P90:      h.Percentile(0.90),
		P99:      h.Percentile(0.99),
		Overflow: h.Overflow(),
	}
}

// Percentile returns the q-th percentile (q in [0,1]) as the lower bound
// of the bucket holding that rank — the same convention the simulator's
// Result percentiles use. An empty histogram returns 0; ranks that fall
// in the overflow bucket return Cap, so saturated tails read as "at
// least the cap".
func (h *Histogram) Percentile(q float64) float64 {
	n := h.samples.Load()
	if n == 0 {
		return 0
	}
	target := int64(q * float64(n))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i := 0; i < h.NumBuckets(); i++ {
		cum += h.counts[i].Load()
		if cum >= target {
			return float64(int64(i) * h.width)
		}
	}
	return float64(h.Cap())
}
