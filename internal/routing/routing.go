// Package routing is the simulator-agnostic multi-path routing engine:
// the paper's Section III-B path-choice mechanisms (SP, Random,
// Round-Robin, vanilla UGAL, KSP-UGAL and the proposed KSP-adaptive)
// behind one Mechanism interface, shared by the cycle-level simulator
// (internal/flitsim) and the application-level simulator
// (internal/appsim).
//
// The split follows Besta et al.'s framing of multipath routing: path
// *selection* (which k candidates exist per pair — internal/paths plus
// the fault-time liveness masks of internal/faults, both wrapped by
// View) is separated from load-aware path *choice* (a Mechanism picking
// one candidate per packet, reading congestion through a LoadEstimator;
// both simulators pass one OccupancyEstimator over their own per-link
// occupancy).
//
// Both simulators call the exact same Choose code with their own seeded
// RNG, so identical seeds, candidate sets and load estimates yield
// identical choice sequences in either simulator (pinned by the parity
// test in this package).
package routing

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// LoadEstimator is the congestion signal a mechanism compares candidate
// paths with. Both simulators pass an OccupancyEstimator, the paper's
// UGAL-style estimate over their per-link occupancy; estimators.go has
// the standalone ones for hosts without a simulation behind them.
type LoadEstimator interface {
	PathCost(p graph.Path) int
}

// Mechanism selects, per packet, which candidate path carries it.
type Mechanism interface {
	// Name is the paper's name for the mechanism.
	Name() string
	// NonMinimal reports whether the mechanism can route over composed
	// (up to 2x diameter) paths, which widens the simulators' default VC
	// allocation.
	NonMinimal() bool
	// NewState builds per-run mutable state (e.g. round-robin counters).
	NewState() State
}

// State is the per-run instantiation of a Mechanism. Choose returns the
// selected path and its index in the pair's candidate set, for the
// per-choice telemetry counters; the index is -1 for same-switch
// traffic and for composed (UGAL detour) paths, which are outside the
// candidate set. A nil path means no candidate survives the current
// failures (or the pair has no paths at all); the caller decides
// between erroring and dropping.
type State interface {
	Choose(v *View, src, dst graph.NodeID, load LoadEstimator, rng *xrand.RNG) (graph.Path, int)
}

// ByName resolves a command-line mechanism name. It accepts every
// spelling documented in the README flags table (the union of the name
// sets the two simulators historically accepted).
func ByName(name string) (Mechanism, error) {
	switch name {
	case "sp", "SP":
		return SP(), nil
	case "random", "Random":
		return Random(), nil
	case "round-robin", "roundrobin", "Round-Robin":
		return RoundRobin(), nil
	case "ugal", "vanilla-ugal", "UGAL":
		return VanillaUGAL(), nil
	case "ksp-ugal", "KSP-UGAL":
		return KSPUGAL(), nil
	case "ksp-adaptive", "KSP-adaptive":
		return KSPAdaptive(), nil
	}
	return nil, fmt.Errorf("routing: unknown mechanism %q (valid: %s)", name, validNames)
}

// validNames lists the canonical spelling of every mechanism ByName
// accepts, for error messages and usage strings.
const validNames = "sp, random, round-robin, ugal, ksp-ugal, ksp-adaptive"

// Mechanisms lists the paper's routing mechanisms in presentation order
// (Figures 7-10 group bars as Random, Round-Robin, UGAL, KSP-UGAL,
// KSP-adaptive).
func Mechanisms() []Mechanism {
	return []Mechanism{Random(), RoundRobin(), VanillaUGAL(), KSPUGAL(), KSPAdaptive()}
}
