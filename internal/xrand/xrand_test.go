package xrand

import (
	"math/rand/v2"
	"reflect"
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

// refSampleK, refTwoDistinct and refIntNExcept are the sampling helpers
// written over math/rand/v2's *rand.Rand, the reference TestMatchesMathRand
// pins the RNG's own helpers to.
func refSampleK(r *rand.Rand, n, k int) []int {
	if k == 0 {
		return nil
	}
	chosen := map[int]bool{}
	out := make([]int, 0, k)
	for j := n - k; j < n; j++ {
		t := r.IntN(j + 1)
		if chosen[t] {
			t = j
		}
		chosen[t] = true
		out = append(out, t)
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func refIntNExcept(r *rand.Rand, n, excl int) int {
	v := r.IntN(n - 1)
	if v >= excl {
		v++
	}
	return v
}

func refTwoDistinct(r *rand.Rand, n int) [2]int {
	a := r.IntN(n)
	return [2]int{a, refIntNExcept(r, n, a)}
}

// TestMatchesMathRand runs one script of every draw, with small, odd,
// power-of-two and huge bounds, on the RNG and on math/rand/v2's
// rand.New(rand.NewPCG(hi, lo)) over the same seed words, and requires
// equal results draw by draw: from a fresh RNG, after Reseed, and in a
// Split child. Int64N(1<<62+1) and Reduce with that bound reject about a
// quarter of their words, so a rejection rule other than math/rand/v2's
// desynchronizes the streams at once; the final Uint64 checks that both
// consumed the same words.
func TestMatchesMathRand(t *testing.T) {
	bounds := []int{1, 2, 3, 5, 7, 8, 64, 100, 1 << 20, 1<<20 + 7, 1<<62 + 1}
	script := []struct {
		name string
		draw func(g *RNG, r *rand.Rand) (got, want any)
	}{
		{"Uint64", func(g *RNG, r *rand.Rand) (any, any) { return g.Uint64(), r.Uint64() }},
		{"Float64", func(g *RNG, r *rand.Rand) (any, any) { return g.Float64(), r.Float64() }},
		{"Bool", func(g *RNG, r *rand.Rand) (any, any) { return g.Bool(), r.Uint64()&1 == 1 }},
		{"IntN", func(g *RNG, r *rand.Rand) (any, any) {
			var got, want []int
			for _, n := range bounds {
				got, want = append(got, g.IntN(n)), append(want, r.IntN(n))
			}
			return got, want
		}},
		{"Int64N", func(g *RNG, r *rand.Rand) (any, any) {
			var got, want []int64
			for _, n := range bounds {
				got, want = append(got, g.Int64N(int64(n))), append(want, r.Int64N(int64(n)))
			}
			for i := 0; i < 64; i++ {
				got, want = append(got, g.Int64N(1<<62+1)), append(want, r.Int64N(1<<62+1))
			}
			return got, want
		}},
		{"Reduce", func(g *RNG, r *rand.Rand) (any, any) {
			var got, want []uint64
			for _, n := range bounds {
				got, want = append(got, g.Reduce(g.Uint64(), uint64(n))), append(want, r.Uint64N(uint64(n)))
			}
			for i := 0; i < 64; i++ {
				got, want = append(got, g.Reduce(g.Uint64(), 1<<62+1)), append(want, r.Uint64N(1<<62+1))
			}
			return got, want
		}},
		{"Perm", func(g *RNG, r *rand.Rand) (any, any) {
			var got, want [][]int
			for _, n := range []int{0, 1, 2, 7, 8, 33} {
				got, want = append(got, g.Perm(n)), append(want, r.Perm(n))
			}
			return got, want
		}},
		{"ShuffleSlice", func(g *RNG, r *rand.Rand) (any, any) {
			var got, want [][]string
			for _, n := range []int{0, 1, 2, 5, 16, 300} {
				a, b := make([]string, n), make([]string, n)
				for i := range a {
					a[i] = string(rune('a' + i%26))
					b[i] = a[i]
				}
				ShuffleSlice(g, a)
				r.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
				got, want = append(got, a), append(want, b)
			}
			return got, want
		}},
		{"SampleK", func(g *RNG, r *rand.Rand) (any, any) {
			var got, want [][]int
			for _, nk := range [][2]int{{5, 0}, {1, 1}, {10, 3}, {10, 10}, {1000, 7}, {64, 33}} {
				got = append(got, g.SampleK(nk[0], nk[1]))
				want = append(want, refSampleK(r, nk[0], nk[1]))
			}
			return got, want
		}},
		{"TwoDistinct", func(g *RNG, r *rand.Rand) (any, any) {
			var got, want [][2]int
			for _, n := range []int{2, 3, 8, 720} {
				a, b := g.TwoDistinct(n)
				got, want = append(got, [2]int{a, b}), append(want, refTwoDistinct(r, n))
			}
			return got, want
		}},
		{"IntNExcept", func(g *RNG, r *rand.Rand) (any, any) {
			var got, want []int
			for _, n := range []int{2, 3, 8, 9, 720} {
				for _, excl := range []int{0, n / 2, n - 1} {
					got, want = append(got, g.IntNExcept(n, excl)), append(want, refIntNExcept(r, n, excl))
				}
			}
			return got, want
		}},
	}
	seeds := [][2]uint64{{0, 0}, {1, 0x9e3779b97f4a7c15}, {42, 7}, {^uint64(0), 1 << 63}, {0xdeadbeef, 0x0123456789abcdef}}
	for _, s := range seeds {
		reseeded := New(99)
		reseeded.Uint64()
		reseeded.Reseed(s[0], s[1])
		parent := NewPair(s[0], s[1])
		parent.Split()
		child := parent.Split()
		// A child's seed words are splitmix64 of the parent's words and its
		// index, here 2.
		golden := uint64(0x9e3779b97f4a7c15)
		childHi, childLo := Mix64(s[0]^2), Mix64(s[1]+2*golden)
		for _, c := range []struct {
			name   string
			g      *RNG
			hi, lo uint64
		}{
			{"fresh", NewPair(s[0], s[1]), s[0], s[1]},
			{"reseeded", reseeded, s[0], s[1]},
			{"split", child, childHi, childLo},
		} {
			r := rand.New(rand.NewPCG(c.hi, c.lo))
			for round := 0; round < 3; round++ {
				for _, step := range script {
					got, want := step.draw(c.g, r)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %x, %s, round %d: %s = %v, math/rand/v2 %v", s, c.name, round, step.name, got, want)
					}
				}
			}
			if got, want := c.g.Uint64(), r.Uint64(); got != want {
				t.Fatalf("seed %x, %s: next word %x, math/rand/v2 %x", s, c.name, got, want)
			}
		}
	}
}

// TestDrawsDoNotAllocate pins that Reseed and every scalar draw, and a
// shuffle of a caller's slice, are allocation-free.
func TestDrawsDoNotAllocate(t *testing.T) {
	g := New(1)
	s := make([]int32, 300)
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"Reseed", func() { g.Reseed(3, 4) }},
		{"Uint64", func() { g.Uint64() }},
		{"Float64", func() { g.Float64() }},
		{"Bool", func() { g.Bool() }},
		{"IntN", func() { g.IntN(7) }},
		{"Int64N", func() { g.Int64N(1<<62 + 1) }},
		{"Reduce", func() { g.Reduce(g.Uint64(), 1<<62+1) }},
		{"IntNExcept", func() { g.IntNExcept(9, 4) }},
		{"TwoDistinct", func() { g.TwoDistinct(720) }},
		{"ShuffleSlice", func() { ShuffleSlice(g, s) }},
	} {
		if n := testing.AllocsPerRun(100, c.f); n != 0 {
			t.Errorf("%s: %v allocs per call, want 0", c.name, n)
		}
	}
}

var drawSink int

// BenchmarkDraws times single draws with a bound whose reduction
// multiplies (7) and one that masks (8), a Float64, and the shuffle of a
// 300-element slice, the size of a late frontier in a randomized search
// on RRG(720,24,19).
//
//	go test ./internal/xrand -run '^$' -bench Draws -benchmem
func BenchmarkDraws(b *testing.B) {
	g := New(1)
	b.Run("IntN7", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			drawSink += g.IntN(7)
		}
	})
	b.Run("IntN8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			drawSink += g.IntN(8)
		}
	})
	b.Run("Float64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if g.Float64() < 0.5 {
				drawSink++
			}
		}
	})
	b.Run("ShuffleSlice300", func(b *testing.B) {
		s := make([]int32, 300)
		for i := range s {
			s[i] = int32(i)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ShuffleSlice(g, s)
		}
		drawSink += int(s[0])
	})
}
