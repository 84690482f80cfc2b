package telemetry

import "testing"

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(1, 10)
	if got := h.Percentile(0.5); got != 0 {
		t.Fatalf("empty p50 = %v, want 0", got)
	}
	if got := h.Percentile(0.99); got != 0 {
		t.Fatalf("empty p99 = %v, want 0", got)
	}
	if h.Mean() != 0 || h.Count() != 0 || h.Overflow() != 0 {
		t.Fatalf("empty histogram: mean=%v count=%d overflow=%d", h.Mean(), h.Count(), h.Overflow())
	}
}

func TestHistogramSingleBucket(t *testing.T) {
	// One in-range bucket: everything below width lands in it, the rest
	// overflows.
	h := NewHistogram(5, 1)
	h.Observe(0)
	h.Observe(4)
	if h.Overflow() != 0 {
		t.Fatalf("overflow = %d, want 0", h.Overflow())
	}
	if got := h.Percentile(0.5); got != 0 {
		t.Fatalf("p50 = %v, want 0 (bucket lower bound)", got)
	}
	h.Observe(5) // at cap: overflow
	if h.Overflow() != 1 {
		t.Fatalf("overflow = %d, want 1", h.Overflow())
	}
	if got := h.Percentile(1.0); got != float64(h.Cap()) {
		t.Fatalf("p100 = %v, want cap %d", got, h.Cap())
	}
}

func TestHistogramOverflow(t *testing.T) {
	h := NewHistogram(1, 100)
	for i := int64(0); i < 100; i++ {
		h.Observe(i)
	}
	h.Observe(1_000_000) // far past the cap
	if h.Overflow() != 1 {
		t.Fatalf("overflow = %d, want 1", h.Overflow())
	}
	if h.Count() != 101 {
		t.Fatalf("count = %d, want 101", h.Count())
	}
	// The overflowed value still contributes its true magnitude to the
	// mean (sum is uncapped).
	wantMean := (99.0*100/2 + 1_000_000) / 101
	if got := h.Mean(); got != wantMean {
		t.Fatalf("mean = %v, want %v", got, wantMean)
	}
	// p99 rank: target = floor(0.99*101) = 99, and the 99th observation
	// in bucket order is value 98; the max rank lands in overflow and
	// reads as the cap.
	if got := h.Percentile(0.99); got != 98 {
		t.Fatalf("p99 = %v, want 98", got)
	}
	if got := h.Percentile(1.0); got != 100 {
		t.Fatalf("p100 = %v, want cap 100", got)
	}
}

func TestHistogramNegativeClamp(t *testing.T) {
	h := NewHistogram(1, 4)
	h.Observe(-7)
	if h.Counts()[0] != 1 {
		t.Fatalf("negative observation not clamped to bucket 0")
	}
	if h.Sum() != 0 {
		t.Fatalf("sum = %d, want 0 (clamped)", h.Sum())
	}
}

func TestHistogramPercentileMonotone(t *testing.T) {
	h := NewHistogram(2, 50)
	for i := int64(0); i < 200; i++ {
		h.Observe(i % 97)
	}
	prev := -1.0
	for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
		p := h.Percentile(q)
		if p < prev {
			t.Fatalf("percentile not monotone: q=%v gives %v after %v", q, p, prev)
		}
		prev = p
	}
}
