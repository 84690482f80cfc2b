package xrand

import (
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split()
	c2 := parent.Split()
	if c1.Uint64() == c2.Uint64() && c1.Uint64() == c2.Uint64() {
		t.Fatal("sibling streams appear identical")
	}

	// Splitting again from an identically seeded parent must reproduce the
	// same children.
	parentA, parentB := New(7), New(7)
	a1, a2 := parentA.Split(), parentA.Split()
	b1, b2 := parentB.Split(), parentB.Split()
	for i := 0; i < 100; i++ {
		if a1.Uint64() != b1.Uint64() {
			t.Fatal("child 1 not reproducible")
		}
		if a2.Uint64() != b2.Uint64() {
			t.Fatal("child 2 not reproducible")
		}
	}
}

func TestIntNExcept(t *testing.T) {
	g := New(3)
	for n := 2; n < 10; n++ {
		for excl := 0; excl < n; excl++ {
			for trial := 0; trial < 50; trial++ {
				v := g.IntNExcept(n, excl)
				if v == excl {
					t.Fatalf("IntNExcept(%d, %d) returned the excluded value", n, excl)
				}
				if v < 0 || v >= n {
					t.Fatalf("IntNExcept(%d, %d) = %d out of range", n, excl, v)
				}
			}
		}
	}
}

func TestIntNExceptUniform(t *testing.T) {
	g := New(9)
	const n, excl, trials = 5, 2, 40000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[g.IntNExcept(n, excl)]++
	}
	if counts[excl] != 0 {
		t.Fatalf("excluded value drawn %d times", counts[excl])
	}
	want := trials / (n - 1)
	for v, c := range counts {
		if v == excl {
			continue
		}
		if c < want*8/10 || c > want*12/10 {
			t.Fatalf("value %d drawn %d times, want about %d", v, c, want)
		}
	}
}

func TestTwoDistinct(t *testing.T) {
	g := New(11)
	for trial := 0; trial < 1000; trial++ {
		a, b := g.TwoDistinct(4)
		if a == b {
			t.Fatal("TwoDistinct returned equal values")
		}
		if a < 0 || a >= 4 || b < 0 || b >= 4 {
			t.Fatalf("TwoDistinct out of range: %d %d", a, b)
		}
	}
}

func TestSampleKProperties(t *testing.T) {
	g := New(13)
	f := func(nRaw, kRaw uint8) bool {
		n := int(nRaw%50) + 1
		k := int(kRaw) % (n + 1)
		s := g.SampleK(n, k)
		if len(s) != k {
			return false
		}
		seen := map[int]bool{}
		for _, v := range s {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleKFull(t *testing.T) {
	g := New(17)
	s := g.SampleK(10, 10)
	seen := map[int]bool{}
	for _, v := range s {
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("SampleK(10,10) is not a permutation: %v", s)
	}
}

func TestSampleKZero(t *testing.T) {
	g := New(19)
	if s := g.SampleK(5, 0); len(s) != 0 {
		t.Fatalf("SampleK(5,0) = %v, want empty", s)
	}
}

func TestShuffleSlice(t *testing.T) {
	g := New(23)
	s := []string{"a", "b", "c", "d"}
	orig := append([]string(nil), s...)
	ShuffleSlice(g, s)
	if len(s) != len(orig) {
		t.Fatal("shuffle changed length")
	}
	seen := map[string]bool{}
	for _, v := range s {
		seen[v] = true
	}
	for _, v := range orig {
		if !seen[v] {
			t.Fatalf("shuffle lost element %q", v)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	g := New(29)
	for i := 0; i < 10000; i++ {
		v := g.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	g := New(31)
	p := g.Perm(64)
	seen := make([]bool, 64)
	for _, v := range p {
		if v < 0 || v >= 64 || seen[v] {
			t.Fatalf("Perm invalid: %v", p)
		}
		seen[v] = true
	}
}

func TestReseed(t *testing.T) {
	a := New(5)
	a.Uint64()
	a.Reseed(10, 20)
	b := NewPair(10, 20)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Reseed does not match NewPair")
		}
	}
	// Children derived after a reseed restart from index zero.
	a.Reseed(10, 20)
	c1 := a.Uint64()
	if c1 != NewPair(10, 20).Uint64() {
		t.Fatal("reseed did not reset the stream")
	}
}

func TestMix64(t *testing.T) {
	seen := map[uint64]bool{}
	for i := uint64(0); i < 1000; i++ {
		v := Mix64(i)
		if seen[v] {
			t.Fatalf("Mix64 collision at %d", i)
		}
		seen[v] = true
	}
	if Mix64(0) == 0 {
		t.Fatal("Mix64(0) should not be 0")
	}
}

func TestBoolBalance(t *testing.T) {
	g := New(37)
	trues := 0
	for i := 0; i < 10000; i++ {
		if g.Bool() {
			trues++
		}
	}
	if trues < 4500 || trues > 5500 {
		t.Fatalf("Bool heavily skewed: %d/10000", trues)
	}
}

func TestInt64N(t *testing.T) {
	g := New(41)
	for i := 0; i < 1000; i++ {
		v := g.Int64N(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Int64N out of range: %d", v)
		}
	}
}
