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

// View is what a mechanism sees of the network's path state: each pair's
// candidate set with its live-candidate mask under the current fault
// state, and the two topology-derived bounds mechanisms need (node count
// for Valiant intermediates, the VC budget for composed detours). The
// host simulator builds one View per run and passes it to every Choose
// call.
type View struct {
	// Provider supplies the per-pair candidate paths.
	Provider PathProvider
	// Faults is the run's fault tracker, or nil when no fault schedule
	// is attached.
	Faults *faults.State
	// NumNodes is the switch count (UGAL draws random intermediates
	// from it).
	NumNodes int
	// MaxHops bounds the length of UGAL's composed detours (the
	// simulators pass their VC budget); 0 means unbounded.
	MaxHops int

	// same caches the single-node path returned for src == dst traffic,
	// one per switch, so the steady-state Choose path allocates nothing
	// (paths handed to callers are read-only by convention). Lazily built;
	// a View is owned by one simulator and is not shared across
	// goroutines.
	same []graph.Path
}

// MaxK is the most candidate paths per pair a run may configure: a
// liveness mask has one bit per candidate in a uint64. exp.Scale and
// jfserve's topo-load refuse a larger k.
const MaxK = 64

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

// Candidates returns the pair's routable candidates and their liveness
// mask, bit i set when candidate i may carry the packet: the configured
// set with every bit set when no fault state is attached or no link is
// down, else what faults.State.Candidates returns (the live subset, or a
// repaired set when every candidate died). A zero mask means the pair is
// unroutable right now. It is the only place routing consults the fault
// state.
func (v *View) Candidates(src, dst graph.NodeID) ([]graph.Path, uint64) {
	ps := v.Provider.Paths(src, dst)
	if v.Faults == nil {
		return ps, faults.FullMask(len(ps))
	}
	return v.Faults.Candidates(src, dst, ps)
}
