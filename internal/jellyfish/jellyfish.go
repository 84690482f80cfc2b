// Package jellyfish builds the Jellyfish interconnect topology of Singla et
// al. (NSDI'12): a random regular graph (RRG) at the switch level with a
// fixed number of compute terminals per switch.
//
// A topology RRG(N, x, y) has N switches of x ports each; y ports per
// switch connect to other switches and x-y ports connect to compute nodes.
// Construction uses the configuration (stub-matching) model with swap
// repair: every switch contributes y port stubs, a uniform random perfect
// matching over the stubs proposes the edges, and conflicting proposals
// (self loops, parallel edges) are repaired by swapping endpoints with
// randomly chosen good edges — the same repair move Jellyfish's
// incremental-growth description uses. The result is exactly y-regular and
// is retried until connected, which for y >= 3 virtually always succeeds on
// the first try.
package jellyfish

import (
	"errors"
	"fmt"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// Topology is an immutable Jellyfish instance: the switch-level RRG plus
// the terminal (compute node) attachment.
type Topology struct {
	// G is the switch-level random regular graph.
	G *graph.Graph
	// N is the switch count, X the ports per switch, Y the network ports
	// per switch.
	N, X, Y int
}

// Params mirrors the paper's RRG(N, x, y) notation.
type Params struct {
	N int // switches
	X int // ports per switch
	Y int // ports per switch used for switch-to-switch links
}

// String renders the parameters in the paper's notation.
func (p Params) String() string { return fmt.Sprintf("RRG(%d,%d,%d)", p.N, p.X, p.Y) }

// Validate reports whether the parameters describe a constructible
// Jellyfish.
func (p Params) Validate() error {
	switch {
	case p.N < 2:
		return errors.New("jellyfish: need at least 2 switches")
	case p.Y < 1:
		return errors.New("jellyfish: need at least 1 network port per switch")
	case p.Y >= p.N:
		return fmt.Errorf("jellyfish: degree y=%d must be < N=%d", p.Y, p.N)
	case p.X < p.Y:
		return fmt.Errorf("jellyfish: ports x=%d must be >= network ports y=%d", p.X, p.Y)
	case p.N*p.Y%2 != 0:
		return fmt.Errorf("jellyfish: N*y = %d*%d must be even", p.N, p.Y)
	}
	return nil
}

// maxBuildAttempts bounds the retry loop for disconnected instances. With
// y >= 3 a random regular graph is connected with overwhelming probability,
// so hitting this bound indicates a pathological parameter choice.
const maxBuildAttempts = 64

// New constructs a Jellyfish topology from the given parameters using rng.
// The same parameters and RNG state always produce the same instance.
func New(p Params, rng *xrand.RNG) (*Topology, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	var lastErr error
	for attempt := 0; attempt < maxBuildAttempts; attempt++ {
		g, err := buildRRG(p.N, p.Y, rng)
		if err != nil {
			// Swap repair can lock up on tiny, near-complete graphs; a
			// fresh random matching almost always succeeds.
			lastErr = err
			continue
		}
		if g.IsConnected() {
			return &Topology{G: g, N: p.N, X: p.X, Y: p.Y}, nil
		}
		lastErr = fmt.Errorf("jellyfish: %v instance disconnected", p)
	}
	return nil, fmt.Errorf("jellyfish: giving up after %d attempts: %w", maxBuildAttempts, lastErr)
}

// MustNew is New for parameters known to be valid; it panics on error.
// Only tests call it (here and in graph, paths, faults and the root
// package's benchmarks), which build topologies from fixed parameters.
func MustNew(p Params, rng *xrand.RNG) *Topology {
	t, err := New(p, rng)
	if err != nil {
		panic(err)
	}
	return t
}

// buildRRG creates one y-regular graph on n nodes with the configuration
// model: a random perfect matching over n*y port stubs, followed by swap
// repair of self loops and parallel edges.
func buildRRG(n, y int, rng *xrand.RNG) (*graph.Graph, error) {
	stubs := make([]graph.NodeID, 0, n*y)
	for i := 0; i < n; i++ {
		for j := 0; j < y; j++ {
			stubs = append(stubs, graph.NodeID(i))
		}
	}
	xrand.ShuffleSlice(rng, stubs)

	type pair struct{ u, v graph.NodeID }
	pairs := make([]pair, 0, n*y/2)
	for i := 0; i+1 < len(stubs); i += 2 {
		pairs = append(pairs, pair{stubs[i], stubs[i+1]})
	}

	// Edge multiset: counts how many proposed pairs map to each undirected
	// edge key (self loops keyed on (u,u)).
	counts := make(map[uint64]int, len(pairs))
	key := func(p pair) uint64 { return graph.UndirectedEdgeKey(p.u, p.v) }
	for _, p := range pairs {
		counts[key(p)]++
	}
	isBad := func(p pair) bool { return p.u == p.v || counts[key(p)] > 1 }

	// Repair: for every conflicting pair, swap one endpoint with a random
	// other pair when the two resulting edges are both simple and new.
	maxAttempts := 256 * len(pairs)
	attempts := 0
	for {
		badIdx := -1
		for i, p := range pairs {
			if isBad(p) {
				badIdx = i
				break
			}
		}
		if badIdx < 0 {
			break
		}
		for ; ; attempts++ {
			if attempts >= maxAttempts {
				return nil, fmt.Errorf("jellyfish: swap repair did not converge (n=%d, y=%d)", n, y)
			}
			j := rng.IntNExcept(len(pairs), badIdx)
			a, b := pairs[badIdx], pairs[j]
			// Candidate rewiring: (a.u, b.u) and (a.v, b.v), with the
			// other orientation as fallback.
			cand := [2][2]pair{
				{{a.u, b.u}, {a.v, b.v}},
				{{a.u, b.v}, {a.v, b.u}},
			}
			swapped := false
			for _, c := range cand {
				n1, n2 := c[0], c[1]
				if n1.u == n1.v || n2.u == n2.v {
					continue
				}
				k1, k2 := key(n1), key(n2)
				if k1 == k2 || counts[k1] > 0 || counts[k2] > 0 {
					continue
				}
				counts[key(a)]--
				counts[key(b)]--
				counts[k1]++
				counts[k2]++
				pairs[badIdx], pairs[j] = n1, n2
				swapped = true
				break
			}
			if swapped {
				break
			}
		}
	}

	gb := graph.NewBuilder(n)
	for _, p := range pairs {
		if !gb.AddEdge(p.u, p.v) {
			return nil, fmt.Errorf("jellyfish: internal error, duplicate edge %d-%d after repair", p.u, p.v)
		}
	}
	return gb.Graph(), nil
}

// TerminalsPerSwitch returns x-y, the number of compute nodes attached to
// each switch.
func (t *Topology) TerminalsPerSwitch() int { return t.X - t.Y }

// NumTerminals returns the total number of compute nodes.
func (t *Topology) NumTerminals() int { return t.N * t.TerminalsPerSwitch() }

// SwitchOf returns the switch that terminal term attaches to. Terminals are
// numbered 0..NumTerminals-1 with terminal i on switch i/(x-y).
func (t *Topology) SwitchOf(term int) graph.NodeID {
	if term < 0 || term >= t.NumTerminals() {
		panic(fmt.Sprintf("jellyfish: terminal %d out of range [0,%d)", term, t.NumTerminals()))
	}
	return graph.NodeID(term / t.TerminalsPerSwitch())
}

// Params returns the construction parameters.
func (t *Topology) Params() Params { return Params{N: t.N, X: t.X, Y: t.Y} }

// Metrics computes the switch-level distance metrics reported in the
// paper's Table I.
func (t *Topology) Metrics(workers int) graph.Metrics {
	return graph.ComputeMetrics(t.G, workers)
}

// Paper topologies (Table I).
var (
	// Small is RRG(36, 24, 16): 36 switches, 288 compute nodes.
	Small = Params{N: 36, X: 24, Y: 16}
	// Medium is RRG(720, 24, 19): 720 switches, 3600 compute nodes.
	Medium = Params{N: 720, X: 24, Y: 19}
	// Large is RRG(2880, 48, 38): 2880 switches, 28800 compute nodes.
	Large = Params{N: 2880, X: 48, Y: 38}
)

// ByName resolves "small", "medium" or "large" to the paper's topologies.
func ByName(name string) (Params, error) {
	switch name {
	case "small":
		return Small, nil
	case "medium":
		return Medium, nil
	case "large":
		return Large, nil
	}
	return Params{}, fmt.Errorf("jellyfish: unknown topology %q (want small, medium or large)", name)
}
