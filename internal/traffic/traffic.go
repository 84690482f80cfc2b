// Package traffic generates the communication patterns the paper evaluates:
//
//   - random permutation — each terminal sends to at most one terminal and
//     receives from at most one;
//   - shift-N — terminal i sends to (i+N) mod #terminals, with random N;
//   - Random(X) — each terminal sends to X random distinct destinations;
//   - all-to-all — every terminal sends to every other terminal;
//   - uniform-random — per-packet uniformly random destinations (a sampler,
//     not a fixed flow set), used by the flit-level simulator;
//   - the four Stencil workloads (2DNN, 2DNNdiag, 3DNN, 3DNNdiag) with
//     linear or random process-to-node mapping and per-flow byte volumes,
//     used by the application simulator.
//
// Fixed patterns are value objects (Pattern); per-packet traffic is a
// Sampler. Both operate on terminal (compute node) ids; mapping terminals
// to switches is the topology's job.
package traffic

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/xrand"
)

// Flow is one source→destination terminal communication.
type Flow struct {
	Src, Dst int
}

// Pattern is a fixed set of flows over n terminals.
type Pattern struct {
	Name         string
	NumTerminals int
	Flows        []Flow
}

// Validate checks that every flow endpoint is a valid terminal and no flow
// is a self-send.
func (p Pattern) Validate() error {
	for _, f := range p.Flows {
		if f.Src < 0 || f.Src >= p.NumTerminals || f.Dst < 0 || f.Dst >= p.NumTerminals {
			return fmt.Errorf("traffic: flow %v out of range [0,%d)", f, p.NumTerminals)
		}
		if f.Src == f.Dst {
			return fmt.Errorf("traffic: self flow at terminal %d", f.Src)
		}
	}
	return nil
}

// RandomPermutation generates a random permutation pattern: a uniform
// permutation of the terminals with fixed points dropped, so each terminal
// sends to at most one other terminal and receives from at most one.
func RandomPermutation(n int, rng *xrand.RNG) Pattern {
	perm := rng.Perm(n)
	flows := make([]Flow, 0, n)
	for i, d := range perm {
		if i != d {
			flows = append(flows, Flow{Src: i, Dst: d})
		}
	}
	return Pattern{Name: "permutation", NumTerminals: n, Flows: flows}
}

// Shift generates the shift-N pattern: terminal i sends to (i+shift) mod n.
// shift must be in [1, n).
func Shift(n, shift int) Pattern {
	if shift <= 0 || shift >= n {
		panic(fmt.Sprintf("traffic: shift %d out of range [1,%d)", shift, n))
	}
	flows := make([]Flow, n)
	for i := 0; i < n; i++ {
		flows[i] = Flow{Src: i, Dst: (i + shift) % n}
	}
	return Pattern{Name: fmt.Sprintf("shift-%d", shift), NumTerminals: n, Flows: flows}
}

// RandomShift generates shift-N with N drawn uniformly from [1, n).
func RandomShift(n int, rng *xrand.RNG) Pattern {
	return Shift(n, 1+rng.IntN(n-1))
}

// RandomX generates the Random(X) pattern: every terminal sends to x
// distinct random destinations other than itself.
func RandomX(n, x int, rng *xrand.RNG) Pattern {
	if x < 1 || x >= n {
		panic(fmt.Sprintf("traffic: Random(%d) needs 1 <= X < n=%d", x, n))
	}
	flows := make([]Flow, 0, n*x)
	for s := 0; s < n; s++ {
		for _, d := range rng.SampleK(n-1, x) {
			if d >= s {
				d++ // skip self
			}
			flows = append(flows, Flow{Src: s, Dst: d})
		}
	}
	return Pattern{Name: fmt.Sprintf("random(%d)", x), NumTerminals: n, Flows: flows}
}

// AllToAll generates the all-to-all pattern over n terminals.
func AllToAll(n int) Pattern {
	flows := make([]Flow, 0, n*(n-1))
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s != d {
				flows = append(flows, Flow{Src: s, Dst: d})
			}
		}
	}
	return Pattern{Name: "all-to-all", NumTerminals: n, Flows: flows}
}

// Sampler draws per-packet destinations, the form of traffic the
// cycle-level simulator injects.
type Sampler interface {
	// Name identifies the traffic for reports.
	Name() string
	// Dest returns the destination terminal for a packet injected at the
	// src terminal, or ok=false if src never sends (e.g. a permutation
	// fixed point).
	Dest(src int, rng *xrand.RNG) (dst int, ok bool)
}

// Uniform is the uniform-random Sampler over n terminals.
type Uniform struct{ N int }

// Name implements Sampler.
func (u Uniform) Name() string { return "uniform" }

// Dest implements Sampler: a uniform destination different from src.
func (u Uniform) Dest(src int, rng *xrand.RNG) (int, bool) {
	if u.N <= 1 {
		return 0, false
	}
	return rng.IntNExcept(u.N, src), true
}

// FixedSampler adapts a fixed Pattern into a Sampler: each packet from src
// goes to one of src's pattern destinations (uniformly when there are
// several, as in Random(X)).
type FixedSampler struct {
	name  string
	dests [][]int
}

// NewFixedSampler builds a Sampler from p.
func NewFixedSampler(p Pattern) *FixedSampler {
	dests := make([][]int, p.NumTerminals)
	for _, f := range p.Flows {
		dests[f.Src] = append(dests[f.Src], f.Dst)
	}
	return &FixedSampler{name: p.Name, dests: dests}
}

// Name implements Sampler.
func (s *FixedSampler) Name() string { return s.name }

// Dest implements Sampler.
func (s *FixedSampler) Dest(src int, rng *xrand.RNG) (int, bool) {
	d := s.dests[src]
	switch len(d) {
	case 0:
		return 0, false
	case 1:
		return d[0], true
	default:
		return d[rng.IntN(len(d))], true
	}
}

// --- Stencil workloads -----------------------------------------------------

// SizedFlow is a flow with a byte volume, used by the application-level
// simulator.
type SizedFlow struct {
	Src, Dst int
	Bytes    int64
}

// Workload is a rank-level communication phase: every rank sends
// TotalBytes split evenly across its stencil neighbours.
type Workload struct {
	Name     string
	NumRanks int
	Flows    []SizedFlow
}

// StencilKind enumerates the paper's four CODES workloads.
type StencilKind int

const (
	// Stencil2DNN is the 2D nearest-neighbour pattern (4 neighbours).
	Stencil2DNN StencilKind = iota
	// Stencil2DNNDiag adds the diagonals (8 neighbours).
	Stencil2DNNDiag
	// Stencil3DNN is the 3D nearest-neighbour pattern (6 neighbours).
	Stencil3DNN
	// Stencil3DNNDiag adds all 3D diagonals (26 neighbours).
	Stencil3DNNDiag
)

// String returns the paper's name for the stencil.
func (k StencilKind) String() string {
	switch k {
	case Stencil2DNN:
		return "2DNN"
	case Stencil2DNNDiag:
		return "2DNNdiag"
	case Stencil3DNN:
		return "3DNN"
	case Stencil3DNNDiag:
		return "3DNNdiag"
	}
	return fmt.Sprintf("StencilKind(%d)", int(k))
}

// StencilKinds lists the four workloads in the paper's table order.
var StencilKinds = []StencilKind{Stencil2DNN, Stencil2DNNDiag, Stencil3DNN, Stencil3DNNDiag}

// StencilByName resolves a stencil name.
func StencilByName(name string) (StencilKind, error) {
	for _, k := range StencilKinds {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("traffic: unknown stencil %q", name)
}

// Dims2D factors n into the most square a×b grid (a >= b). It panics if n
// has no nontrivial factorization... which cannot happen: 1×n always works.
func Dims2D(n int) (a, b int) {
	best := 1
	for d := 1; d*d <= n; d++ {
		if n%d == 0 {
			best = d
		}
	}
	return n / best, best
}

// Dims3D factors n into the most cubic a×b×c box (a >= b >= c).
func Dims3D(n int) (a, b, c int) {
	bestScore := math.MaxFloat64
	a, b, c = n, 1, 1
	for x := 1; x*x*x <= n; x++ {
		if n%x != 0 {
			continue
		}
		rem := n / x
		for y := x; y*y <= rem; y++ {
			if rem%y != 0 {
				continue
			}
			z := rem / y
			// Score by aspect ratio: lower is more cubic.
			score := float64(z) / float64(x)
			if score < bestScore {
				bestScore = score
				dims := []int{x, y, z}
				sort.Sort(sort.Reverse(sort.IntSlice(dims)))
				a, b, c = dims[0], dims[1], dims[2]
			}
		}
	}
	return a, b, c
}

// StencilConfig parameterizes stencil workload generation.
type StencilConfig struct {
	// Kind selects the stencil.
	Kind StencilKind
	// Ranks is the number of MPI ranks; it must equal the network's
	// terminal count in the paper's methodology.
	Ranks int
	// TotalBytes is the number of bytes each rank sends, split evenly
	// across its neighbours (the paper uses 15 MB).
	TotalBytes int64
}

// DefaultTotalBytes is the paper's per-rank send volume: 15 MB.
const DefaultTotalBytes = 15 * 1000 * 1000

// Stencil generates the workload: a torus-wrapped nearest-neighbour
// exchange over a balanced process grid, each rank sending
// TotalBytes/#neighbours to each neighbour.
func Stencil(cfg StencilConfig) Workload {
	if cfg.Ranks < 2 {
		panic("traffic: stencil needs at least 2 ranks")
	}
	bytes := cfg.TotalBytes
	if bytes == 0 {
		bytes = DefaultTotalBytes
	}
	var flows []SizedFlow
	switch cfg.Kind {
	case Stencil2DNN, Stencil2DNNDiag:
		nx, ny := Dims2D(cfg.Ranks)
		diag := cfg.Kind == Stencil2DNNDiag
		flows = stencil2D(nx, ny, diag, bytes)
	case Stencil3DNN, Stencil3DNNDiag:
		nx, ny, nz := Dims3D(cfg.Ranks)
		diag := cfg.Kind == Stencil3DNNDiag
		flows = stencil3D(nx, ny, nz, diag, bytes)
	default:
		panic(fmt.Sprintf("traffic: unknown stencil kind %v", cfg.Kind))
	}
	return Workload{Name: cfg.Kind.String(), NumRanks: cfg.Ranks, Flows: flows}
}

func stencil2D(nx, ny int, diag bool, totalBytes int64) []SizedFlow {
	rank := func(x, y int) int { return ((x+nx)%nx)*ny + (y+ny)%ny }
	var offs [][2]int
	for dx := -1; dx <= 1; dx++ {
		for dy := -1; dy <= 1; dy++ {
			if dx == 0 && dy == 0 {
				continue
			}
			if !diag && dx != 0 && dy != 0 {
				continue
			}
			offs = append(offs, [2]int{dx, dy})
		}
	}
	flows := make([]SizedFlow, 0, nx*ny*len(offs))
	for x := 0; x < nx; x++ {
		for y := 0; y < ny; y++ {
			src := rank(x, y)
			dests := uniqueDests(src, func(yield func(int)) {
				for _, o := range offs {
					yield(rank(x+o[0], y+o[1]))
				}
			})
			per := totalBytes / int64(len(dests))
			for _, d := range dests {
				flows = append(flows, SizedFlow{Src: src, Dst: d, Bytes: per})
			}
		}
	}
	return flows
}

func stencil3D(nx, ny, nz int, diag bool, totalBytes int64) []SizedFlow {
	rank := func(x, y, z int) int {
		return (((x+nx)%nx)*ny+(y+ny)%ny)*nz + (z+nz)%nz
	}
	var offs [][3]int
	for dx := -1; dx <= 1; dx++ {
		for dy := -1; dy <= 1; dy++ {
			for dz := -1; dz <= 1; dz++ {
				if dx == 0 && dy == 0 && dz == 0 {
					continue
				}
				nonzero := 0
				for _, d := range []int{dx, dy, dz} {
					if d != 0 {
						nonzero++
					}
				}
				if !diag && nonzero != 1 {
					continue
				}
				offs = append(offs, [3]int{dx, dy, dz})
			}
		}
	}
	flows := make([]SizedFlow, 0, nx*ny*nz*len(offs))
	for x := 0; x < nx; x++ {
		for y := 0; y < ny; y++ {
			for z := 0; z < nz; z++ {
				src := rank(x, y, z)
				dests := uniqueDests(src, func(yield func(int)) {
					for _, o := range offs {
						yield(rank(x+o[0], y+o[1], z+o[2]))
					}
				})
				per := totalBytes / int64(len(dests))
				for _, d := range dests {
					flows = append(flows, SizedFlow{Src: src, Dst: d, Bytes: per})
				}
			}
		}
	}
	return flows
}

// uniqueDests collects distinct destinations excluding self: on small grid
// dimensions torus wraparound can alias two offsets to the same rank (or
// back to the sender).
func uniqueDests(src int, gen func(yield func(int))) []int {
	seen := map[int]struct{}{}
	var out []int
	gen(func(d int) {
		if d == src {
			return
		}
		if _, dup := seen[d]; dup {
			return
		}
		seen[d] = struct{}{}
		out = append(out, d)
	})
	sort.Ints(out)
	return out
}

// --- Process-to-node mappings -----------------------------------------------

// Mapping assigns rank r to terminal Mapping[r].
type Mapping []int

// LinearMapping maps rank r to terminal r.
func LinearMapping(n int) Mapping {
	m := make(Mapping, n)
	for i := range m {
		m[i] = i
	}
	return m
}

// RandomMapping maps ranks to terminals by a uniform permutation.
func RandomMapping(n int, rng *xrand.RNG) Mapping {
	return Mapping(rng.Perm(n))
}

// Apply translates the workload's rank-level flows to terminal-level flows
// under the mapping. It panics if the mapping is shorter than the rank
// count.
func (w Workload) Apply(m Mapping) []SizedFlow {
	if len(m) < w.NumRanks {
		panic(fmt.Sprintf("traffic: mapping covers %d ranks, workload has %d", len(m), w.NumRanks))
	}
	out := make([]SizedFlow, len(w.Flows))
	for i, f := range w.Flows {
		out[i] = SizedFlow{Src: m[f.Src], Dst: m[f.Dst], Bytes: f.Bytes}
	}
	return out
}

// TotalBytes sums the byte volume of all flows.
func (w Workload) TotalBytes() int64 {
	var sum int64
	for _, f := range w.Flows {
		sum += f.Bytes
	}
	return sum
}
