// Package xrand provides small, deterministic pseudo-random utilities used
// throughout the repository.
//
// All randomized algorithms in this module (RRG construction, randomized
// shortest-path tie-breaking, traffic pattern generation, adaptive routing
// candidate sampling, ...) draw from explicitly seeded sources so that every
// experiment is reproducible from its seed. An RNG is a concrete PCG: it
// holds a math/rand/v2 rand.PCG by value and implements each draw with
// math/rand/v2's own algorithm (Lemire's multiply-and-reject reduction for
// IntN and Int64N, the 53-bit Float64, the Fisher–Yates shuffle and Perm),
// so its streams are exactly those of rand.New(rand.NewPCG(hi, lo)), while
// a draw is a direct call rather than one through the rand.Source
// interface, and Reseed allocates nothing. The package adds a few helpers
// that the standard library does not provide: stream splitting
// (independent child streams derived from a parent seed), closure-free
// slice shuffling for arbitrary element types, and exclusive integer
// sampling.
package xrand

import (
	"math/bits"
	"math/rand/v2"
)

// RNG is a deterministic pseudo-random number generator: a PCG with split
// and sampling helpers, whose every draw matches math/rand/v2's *rand.Rand
// over the same PCG. RNG is not safe for concurrent use; use Split to
// derive independent per-goroutine streams.
type RNG struct {
	pcg rand.PCG
	// seed material retained so children can be derived deterministically.
	hi, lo  uint64
	nextKid uint64
}

// New returns an RNG seeded from a single 64-bit seed.
func New(seed uint64) *RNG {
	return NewPair(seed, 0x9e3779b97f4a7c15)
}

// NewPair returns an RNG seeded from two 64-bit words.
func NewPair(hi, lo uint64) *RNG {
	g := new(RNG)
	g.Reseed(hi, lo)
	return g
}

// Split derives a new, statistically independent RNG from this one. Children
// derived from the same parent in the same order are identical across runs,
// which lets parallel workers each own a deterministic stream.
func (g *RNG) Split() *RNG {
	g.nextKid++
	// Mix the parent seed with the child index through splitmix64 so child
	// streams do not overlap the parent's.
	return NewPair(splitmix64(g.hi^g.nextKid), splitmix64(g.lo+g.nextKid*0x9e3779b97f4a7c15))
}

// Reseed resets the generator to a fresh stream derived from the two seed
// words, as if created by NewPair. It lets long-lived worker objects give
// every work item (e.g. every source-destination pair) its own
// schedule-independent stream.
func (g *RNG) Reseed(hi, lo uint64) {
	g.pcg.Seed(hi, lo)
	g.hi, g.lo = hi, lo
	g.nextKid = 0
}

// Mix64 is a strong 64-bit mixing function (the SplitMix64 finalizer),
// exported for callers that derive stream seeds from structured values
// such as pair keys.
func Mix64(x uint64) uint64 { return splitmix64(x) }

// splitmix64 is the finalizer of the SplitMix64 generator; it is a strong
// 64-bit mixing function.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// uint64n returns a uniform value in [0, n) for n > 0 by math/rand/v2's
// rule, so it consumes the same words and returns the same values.
func (g *RNG) uint64n(n uint64) uint64 { return g.Reduce(g.pcg.Uint64(), n) }

// Reduce is the finishing step of math/rand/v2's IntN: it returns a
// uniform value in [0, n), for n > 0, from x, the word just drawn from g
// by Uint64, so g.Reduce(g.Uint64(), n) draws exactly as IntN(n) does. A
// power of two masks x; otherwise the high word of x*n is the result,
// and x is redrawn from g while the low word falls below 2^64 mod n
// (Lemire, "Fast random integer generation in an interval", 2019). Both
// cases are computed from x and the power-of-two one is selected without
// a branch, since reservoir sampling's bounds 2, 3, 4, 5, ... alternate
// between them unpredictably. Reduce inlines, so a caller that draws its
// word itself makes no call: the rejection loop, entered only when the
// low word is below n, which almost never happens for small n, is a call
// to redraw.
func (g *RNG) Reduce(x, n uint64) uint64 { return reduce(g, x, n, (*RNG).redraw) }

// reduce is Reduce's body. It takes redraw as a parameter because the
// inliner charges a call through a parameter less than a direct call,
// which would put Reduce over its budget; inlined, it is a call through
// a constant function value, made only on the rare rejection.
func reduce(g *RNG, x, n uint64, redraw func(*RNG, uint64, uint64) uint64) uint64 {
	hi, lo := bits.Mul64(x, n)
	if n&(n-1) == 0 {
		hi, lo = x&(n-1), n // masked, and never rejected
	}
	if lo < n {
		hi = redraw(g, x, n)
	}
	return hi
}

// redraw is Reduce's rejection loop, for a word x whose low word of x*n
// is below n: it redraws while the low word falls below 2^64 mod n and
// returns the high word.
func (g *RNG) redraw(x, n uint64) uint64 {
	hi, lo := bits.Mul64(x, n)
	thresh := -n % n
	for lo < thresh {
		hi, lo = bits.Mul64(g.pcg.Uint64(), n)
	}
	return hi
}

// IntN returns a uniform int in [0, n). It panics if n <= 0.
func (g *RNG) IntN(n int) int {
	if n <= 0 {
		panic("xrand: IntN needs n > 0")
	}
	return int(g.uint64n(uint64(n)))
}

// Int64N returns a uniform int64 in [0, n). It panics if n <= 0.
func (g *RNG) Int64N(n int64) int64 {
	if n <= 0 {
		panic("xrand: Int64N needs n > 0")
	}
	return int64(g.uint64n(uint64(n)))
}

// Uint64 returns a uniform 64-bit value.
func (g *RNG) Uint64() uint64 { return g.pcg.Uint64() }

// Float64 returns a uniform float64 in [0, 1): one of the 2^53 multiples of
// 2^-53 there, from the low 53 bits of one word.
func (g *RNG) Float64() float64 { return float64(g.pcg.Uint64()<<11>>11) / (1 << 53) }

// Bool returns true with probability 1/2.
func (g *RNG) Bool() bool { return g.pcg.Uint64()&1 == 1 }

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	ShuffleSlice(g, p)
	return p
}

// ShuffleSlice shuffles s in place by Fisher–Yates from the last element
// down, drawing exactly as math/rand/v2's Shuffle(len(s), ...) does.
func ShuffleSlice[T any](g *RNG, s []T) {
	for i := len(s) - 1; i > 0; i-- {
		j := int(g.Reduce(g.pcg.Uint64(), uint64(i+1)))
		s[i], s[j] = s[j], s[i]
	}
}

// IntNExcept returns a uniform int in [0, n) that is different from excl.
// It panics if n <= 1.
func (g *RNG) IntNExcept(n, excl int) int {
	if n <= 1 {
		panic("xrand: IntNExcept needs n > 1")
	}
	v := g.IntN(n - 1)
	if v >= excl {
		v++
	}
	return v
}

// TwoDistinct returns two distinct uniform ints in [0, n). It panics if
// n <= 1.
func (g *RNG) TwoDistinct(n int) (int, int) {
	a := g.IntN(n)
	return a, g.IntNExcept(n, a)
}

// SampleK returns k distinct uniform values from [0, n) in random order.
// It panics if k > n or k < 0.
func (g *RNG) SampleK(n, k int) []int {
	if k < 0 || k > n {
		panic("xrand: SampleK needs 0 <= k <= n")
	}
	if k == 0 {
		return nil
	}
	// Floyd's algorithm: O(k) expected work, no O(n) allocation for small k.
	chosen := make(map[int]struct{}, k)
	out := make([]int, 0, k)
	for j := n - k; j < n; j++ {
		t := g.IntN(j + 1)
		if _, dup := chosen[t]; dup {
			t = j
		}
		chosen[t] = struct{}{}
		out = append(out, t)
	}
	ShuffleSlice(g, out)
	return out
}
