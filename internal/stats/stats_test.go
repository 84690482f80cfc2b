package stats

import (
	"math"
	"strings"
	"testing"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

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
