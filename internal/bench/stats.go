package bench

import (
	"fmt"
	"math"
	"sort"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// Median returns the middle value of v (the mean of the two middle values
// for an even count), or 0 for an empty slice.
func Median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quartiles returns the first and third quartiles of v by the same
// exclusive-method interpolation as Python's statistics.quantiles(v, n=4),
// so spreads computed here agree with ones computed from the printed
// results. With fewer than two values both quartiles equal the median.
func Quartiles(v []float64) (q1, q3 float64) {
	if len(v) < 2 {
		m := Median(v)
		return m, m
	}
	s := sorted(v)
	ld := len(s)
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// Spread is the interquartile range of v as a share of its median (0 when
// the median is 0).
func Spread(v []float64) float64 {
	med := Median(v)
	if med == 0 {
		return 0
	}
	q1, q3 := Quartiles(v)
	return (q3 - q1) / math.Abs(med)
}

// tailPercentiles are the percentiles TailPercentile considers, highest
// first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// TailPercentile returns the highest of p99.9, p99, p95, p90, p75 and p50
// that has at least ten samples beyond it, with its nearest-rank value; ok
// is false when even the median has fewer than ten samples beyond it
// (fewer than 20 samples).
func TailPercentile(v []float64) (pct, value float64, ok bool) {
	n := float64(len(v))
	for _, p := range tailPercentiles {
		if n*(1-p/100) >= 10-1e-9 {
			return p, Percentile(v, p), true
		}
	}
	return 0, 0, false
}

// Percentile returns the nearest-rank p-th percentile of v (0 for an
// empty slice).
func Percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	rank := int(math.Ceil(p/100*float64(len(s)) - 1e-9)) // 0.999*10000 is 9990.000000000002
	return s[max(1, min(rank, len(s)))-1]
}

// latencySummary formats latencies in microseconds the way jfbench
// reports every timing: the median, the highest percentile with at least
// ten samples beyond it, and the sample count.
func latencySummary(us []float64) string {
	s := fmt.Sprintf("p50 %.1f us", Median(us))
	if p, v, ok := TailPercentile(us); ok && p > 50 {
		s += fmt.Sprintf(", p%g %.1f us", p, v)
	}
	return s + fmt.Sprintf(" (n=%d)", len(us))
}
