package bench

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := Median(c.in); !near(got, c.want) {
			t.Errorf("Median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// The expected values are Python's statistics.quantiles(v, n=4)[0] and
// [2], the spread the benchmark's acceptance is computed with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{7, 1, 9, 3, 5, 2, 8, 4, 6, 10}, 2.75, 8.25},
		{[]float64{0.194, 0.215, 0.194, 0.187, 0.188, 0.198, 0.209, 0.187, 0.195, 0.212}, 0.18775, 0.20975},
	} {
		q1, q3 := Quartiles(c.in)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("Quartiles(%v) = %v, %v; want %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
	if q1, q3 := Quartiles([]float64{4}); q1 != 4 || q3 != 4 {
		t.Errorf("Quartiles of one value = %v, %v", q1, q3)
	}
}

func TestSpread(t *testing.T) {
	if got := Spread([]float64{1, 2, 3, 4, 5}); !near(got, 1) {
		t.Errorf("Spread = %v, want 1 (IQR 3 over median 3)", got)
	}
}

func TestTailPercentile(t *testing.T) {
	ramp := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(n - i) // descending, so sorting matters
		}
		return v
	}
	for _, c := range []struct {
		n       int
		pct     float64
		value   float64
		ok      bool
		comment string
	}{
		{19, 0, 0, false, "fewer than ten beyond the median"},
		{20, 50, 10, true, "exactly ten beyond p50"},
		{100, 90, 90, true, "ten beyond p90"},
		{999, 95, 950, true, "9.99 beyond p99 is too few"},
		{1000, 99, 990, true, "ten beyond p99"},
		{10000, 99.9, 9990, true, "ten beyond p99.9"},
	} {
		pct, value, ok := TailPercentile(ramp(c.n))
		if pct != c.pct || !near(value, c.value) || ok != c.ok {
			t.Errorf("n=%d (%s): got p%v = %v (ok %v), want p%v = %v (ok %v)",
				c.n, c.comment, pct, value, ok, c.pct, c.value, c.ok)
		}
	}
}

func TestVerdict(t *testing.T) {
	series := func(better string, v ...float64) *Series {
		s := &Series{Better: better, Values: v, N: len(v), Median: Median(v)}
		s.Q1, s.Q3 = Quartiles(v)
		return s
	}
	base := series("lower", 100, 101, 99, 100, 102, 98, 100, 101, 99, 100)
	for _, c := range []struct {
		name string
		cur  *Series
		want string
	}{
		{"same", series("lower", 100, 100, 101, 99, 100, 101, 99, 100, 102, 98), Unchanged},
		{"faster in every pair", series("lower", 90, 91, 89, 90, 92, 88, 90, 91, 89, 90), Improved},
		{"slower past the bound", series("lower", 130, 131, 129, 130, 132, 128, 130, 131, 129, 130), Worse},
		{"slower within the bound", series("lower", 105, 106, 104, 105, 107, 103, 105, 106, 104, 105), Unchanged},
	} {
		if got := Verdict(base, c.cur, 0.1); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
	wide := series("higher", 50, 150, 60, 140, 70, 130, 80, 120, 90, 110)
	if got := Verdict(wide, series("higher", 100, 100, 100, 100, 100, 100, 100, 100, 100, 100), 0.1); got != Unresolved {
		t.Errorf("parent spread wider than the bound: verdict %s, want %s", got, Unresolved)
	}
}
