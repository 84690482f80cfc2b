// Package xrand provides small, deterministic pseudo-random utilities used
// throughout the repository.
//
// All randomized algorithms in this module (RRG construction, randomized
// shortest-path tie-breaking, traffic pattern generation, adaptive routing
// candidate sampling, ...) draw from explicitly seeded sources so that every
// experiment is reproducible from its seed. The package wraps math/rand/v2
// PCG sources and adds a few helpers that the standard library does not
// provide: stream splitting (independent child streams derived from a parent
// seed), slice shuffling for arbitrary element types, and weighted and
// exclusive integer sampling.
package xrand

import (
	"math/rand/v2"
)

// RNG is a deterministic pseudo-random number generator. It is a thin wrapper
// around *rand.Rand (PCG) adding split and sampling helpers. RNG is not safe
// for concurrent use; use Split to derive independent per-goroutine streams.
type RNG struct {
	r *rand.Rand
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
	return &RNG{r: rand.New(rand.NewPCG(hi, lo)), hi: hi, lo: lo}
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
	g.r = rand.New(rand.NewPCG(hi, lo))
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

// IntN returns a uniform int in [0, n). It panics if n <= 0.
func (g *RNG) IntN(n int) int { return g.r.IntN(n) }

// Int64N returns a uniform int64 in [0, n). It panics if n <= 0.
func (g *RNG) Int64N(n int64) int64 { return g.r.Int64N(n) }

// Uint64 returns a uniform 64-bit value.
func (g *RNG) Uint64() uint64 { return g.r.Uint64() }

// Float64 returns a uniform float64 in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Bool returns true with probability 1/2.
func (g *RNG) Bool() bool { return g.r.Uint64()&1 == 1 }

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Shuffle shuffles n elements using the provided swap function.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }

// IntNExcept returns a uniform int in [0, n) that is different from excl.
// It panics if n <= 1.
func (g *RNG) IntNExcept(n, excl int) int {
	if n <= 1 {
		panic("xrand: IntNExcept needs n > 1")
	}
	v := g.r.IntN(n - 1)
	if v >= excl {
		v++
	}
	return v
}

// TwoDistinct returns two distinct uniform ints in [0, n). It panics if
// n <= 1.
func (g *RNG) TwoDistinct(n int) (int, int) {
	a := g.r.IntN(n)
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
		t := g.r.IntN(j + 1)
		if _, dup := chosen[t]; dup {
			t = j
		}
		chosen[t] = struct{}{}
		out = append(out, t)
	}
	g.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// ShuffleSlice shuffles s in place.
func ShuffleSlice[T any](g *RNG, s []T) {
	g.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
}
