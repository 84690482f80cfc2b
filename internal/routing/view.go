package routing

import (
	"repro/internal/faults"
	"repro/internal/graph"
)

// PathProvider supplies the k candidate paths per ordered switch pair
// (typically *paths.DB).
type PathProvider interface {
	Paths(s, d graph.NodeID) []graph.Path
}

// View is what a mechanism sees of the network's path state: the
// configured candidate sets, the live-candidate masks under the current
// fault state, and the two topology-derived bounds mechanisms need
// (node count for Valiant intermediates, the VC budget for composed
// detours). The host simulator builds one View per run and passes it to
// every Choose call.
type View struct {
	// Provider supplies the per-pair candidate paths.
	Provider PathProvider
	// Faults is the run's fault tracker, or nil when no fault schedule
	// is attached.
	Faults *faults.State
	// NumNodes is the switch count (UGAL draws random intermediates
	// from it).
	NumNodes int
	// MaxHops bounds admissible path length during fault episodes (the
	// simulators pass their VC budget); 0 means unbounded.
	MaxHops int

	// same caches the single-node path returned for src == dst traffic,
	// one per switch, so the steady-state Choose path allocates nothing
	// (paths handed to callers are read-only by convention). Lazily built;
	// a View is owned by one simulator and is not shared across
	// goroutines.
	same []graph.Path
}

// VCBudget is the virtual-channel count a simulator needs on a network of
// the given diameter: under VC-per-hop deadlock avoidance a path of h hops
// uses VCs 0..h-1, so the budget bounds every admissible path (and is what
// the simulators pass as View.MaxHops). Edge-disjoint selectors routinely
// exceed the diameter, so minimal mechanisms get 2·diameter+2; UGAL-style
// non-minimal detours concatenate two paths and get 3·diameter+2. The
// paper sizes VCs "equal to the diameter of the network", which holds only
// for near-minimal KSP paths.
func VCBudget(diameter int32, nonMinimal bool) int {
	if nonMinimal {
		return 3*int(diameter) + 2
	}
	return 2*int(diameter) + 2
}

// SamePath returns the one-node path for a packet whose source and
// destination share a switch, cached per node.
func (v *View) SamePath(n graph.NodeID) graph.Path {
	if v.same == nil {
		if v.NumNodes <= 0 {
			return graph.Path{n}
		}
		v.same = make([]graph.Path, v.NumNodes)
	}
	if v.same[n] == nil {
		v.same[n] = graph.Path{n}
	}
	return v.same[n]
}

// Prewarm eagerly builds the same-switch path cache. A fresh View fills
// that cache lazily on first use, which is fine for its usual
// single-goroutine owner but is a data race when one View is shared by
// concurrent readers (the serving daemon's routing-state stripes). After
// Prewarm, SamePath and Candidates only ever read. A View with NumNodes
// unset cannot be prewarmed and stays lazy (and single-owner).
func (v *View) Prewarm() {
	if v.NumNodes <= 0 {
		return
	}
	if v.same == nil {
		v.same = make([]graph.Path, v.NumNodes)
	}
	for i := range v.same {
		if v.same[i] == nil {
			v.same[i] = graph.Path{graph.NodeID(i)}
		}
	}
}

// Degraded reports whether any link is currently down. Mechanisms
// branch on it: the false branch is the exact pre-fault code, so a run
// with an empty (or not-yet-fired, or fully recovered) schedule
// consumes the RNG identically to a run with no fault machinery at all.
func (v *View) Degraded() bool { return v.Faults != nil && v.Faults.Active() }

// Candidates returns the pair's configured candidate set, ignoring
// faults (the non-degraded fast path). An empty set means the pair is
// unroutable and Choose returns nil.
func (v *View) Candidates(src, dst graph.NodeID) []graph.Path {
	return v.Provider.Paths(src, dst)
}

// LiveCandidates returns the pair's routable candidates and liveness
// mask under the current fault state: the configured candidates with
// dead ones masked off, or a repaired set when all of them died. A zero
// mask means the pair is unroutable right now. Only call when Degraded
// is true.
func (v *View) LiveCandidates(src, dst graph.NodeID) ([]graph.Path, uint64) {
	return v.Faults.Candidates(src, dst, v.Provider.Paths(src, dst))
}
