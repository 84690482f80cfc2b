package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || !approx(s.Mean, 3) || !approx(s.Min, 1) || !approx(s.Max, 5) || !approx(s.P50, 3) {
		t.Fatalf("summary = %+v", s)
	}
	// Sample stddev of 1..5 is sqrt(2.5).
	if !approx(s.Std, math.Sqrt(2.5)) {
		t.Fatalf("std = %v", s.Std)
	}
}

func TestSummarizeEmptyAndSingle(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Mean != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
	s := Summarize([]float64{7})
	if s.N != 1 || s.Mean != 7 || s.Std != 0 || s.CI95 != 0 || s.P50 != 7 {
		t.Fatalf("single summary = %+v", s)
	}
}

func TestMedianEven(t *testing.T) {
	if s := Summarize([]float64{4, 1, 3, 2}); !approx(s.P50, 2.5) {
		t.Fatalf("p50 = %v", s.P50)
	}
}

func TestSummaryProperties(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := Summarize(xs)
		return s.Min <= s.Mean+1e-6 && s.Mean <= s.Max+1e-6 &&
			s.Min <= s.P50 && s.P50 <= s.Max && s.Std >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestImprovement(t *testing.T) {
	if !approx(Improvement(1.0, 0.9), 10) {
		t.Fatalf("improvement = %v", Improvement(1.0, 0.9))
	}
	if Improvement(0, 5) != 0 {
		t.Fatal("zero baseline should yield 0")
	}
}

func TestTableString(t *testing.T) {
	tb := NewTable("Table X", "name", "value")
	tb.AddRowf("alpha", 1.5)
	tb.AddRowf("b", 42)
	out := tb.String()
	if !strings.Contains(out, "Table X") || !strings.Contains(out, "alpha") {
		t.Fatalf("output missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(out, "1.500") {
		t.Fatalf("float formatting wrong:\n%s", out)
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow("x,y", `quote"d`)
	csv := tb.CSV()
	want := "a,b\n\"x,y\",\"quote\"\"d\"\n"
	if csv != want {
		t.Fatalf("csv = %q, want %q", csv, want)
	}
}

func TestMean(t *testing.T) {
	if !approx(Mean([]float64{2, 4}), 3) {
		t.Fatal("Mean wrong")
	}
}
