package routing

import (
	"slices"

	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/xrand"
)

// Every mechanism has one choice rule over View.Candidates' (candidates,
// mask). With no failed link the mask is all-alive, 2^n-1, on which
// FirstSet is 0, NthSet(mask, i) is i, NextSet from c is c and PopCount
// is n, so the same draws index the same candidates as direct indexing
// would: a fault-free run consumes the RNG exactly as the cycle-level
// simulator always has (which draws happen, in which order, including
// for one-element candidate sets) and stays bit-identical under a seed.

// --- SP ---------------------------------------------------------------------

type spMech struct{}

// SP is single-path routing: every packet takes the pair's shortest
// surviving path (the first live candidate).
func SP() Mechanism { return spMech{} }

func (spMech) Name() string     { return "SP" }
func (spMech) NonMinimal() bool { return false }
func (spMech) NewState() State  { return spState{} }

type spState struct{}

func (spState) Choose(v *View, src, dst graph.NodeID, _ LoadEstimator, _ *xrand.RNG) (graph.Path, int) {
	if src == dst {
		return v.SamePath(src), -1
	}
	ps, mask := v.Candidates(src, dst)
	if mask == 0 {
		return nil, -1
	}
	i := faults.FirstSet(mask)
	return ps[i], i
}

// --- Random -----------------------------------------------------------------

type randomMech struct{}

// Random picks one of the live candidate paths uniformly at random per
// packet.
func Random() Mechanism { return randomMech{} }

func (randomMech) Name() string     { return "Random" }
func (randomMech) NonMinimal() bool { return false }
func (randomMech) NewState() State  { return randomState{} }

type randomState struct{}

func (randomState) Choose(v *View, src, dst graph.NodeID, _ LoadEstimator, rng *xrand.RNG) (graph.Path, int) {
	if src == dst {
		return v.SamePath(src), -1
	}
	ps, mask := v.Candidates(src, dst)
	if mask == 0 {
		return nil, -1
	}
	i := faults.NthSet(mask, rng.IntN(faults.PopCount(mask)))
	return ps[i], i
}

// --- Round-robin --------------------------------------------------------------

type rrMech struct{}

// RoundRobin cycles through the k candidate paths of each switch pair in
// order, one path per packet, skipping dead candidates: the next live
// path at or after the pair's counter carries the packet.
func RoundRobin() Mechanism { return rrMech{} }

func (rrMech) Name() string     { return "Round-Robin" }
func (rrMech) NonMinimal() bool { return false }
func (rrMech) NewState() State {
	return &rrState{counters: make(map[uint64]int32)}
}

type rrState struct {
	counters map[uint64]int32
}

func (r *rrState) Choose(v *View, src, dst graph.NodeID, _ LoadEstimator, _ *xrand.RNG) (graph.Path, int) {
	if src == dst {
		return v.SamePath(src), -1
	}
	ps, mask := v.Candidates(src, dst)
	if mask == 0 {
		return nil, -1
	}
	key := graph.PairKey(src, dst)
	c := int(r.counters[key])
	if c >= len(ps) { // the set shrank (a repair) since the last choice
		c %= len(ps)
	}
	i := faults.NextSet(mask, c, len(ps))
	next := i + 1
	if next == len(ps) {
		next = 0
	}
	r.counters[key] = int32(next)
	return ps[i], i
}

// --- vanilla UGAL -------------------------------------------------------------

type ugalMech struct{ bias int }

// VanillaUGAL is the classic Universal Globally Adaptive Load-balanced
// routing applied directly to Jellyfish: per packet it compares the
// minimal path against one Valiant-style non-minimal path through a random
// intermediate switch, estimating each path's latency through the
// LoadEstimator, with no bias toward either (the paper's setting). The
// minimal path is the pair's first live candidate; the non-minimal path
// is the concatenation of the first live candidates to and from the
// intermediate, admitted only when both legs have one and it fits
// View.MaxHops. With fewer than three switches there is no intermediate,
// and the minimal path is taken without a draw.
func VanillaUGAL() Mechanism { return ugalMech{} }

// VanillaUGALBiased is VanillaUGAL with an additive bias (in queue-cycle
// units) in favor of the minimal path: the non-minimal candidate is taken
// only when its estimate beats the minimal estimate by more than bias.
// The paper evaluates bias 0 ("no bias towards MIN or VLB"); this knob
// exists for the ablation study.
func VanillaUGALBiased(bias int) Mechanism { return ugalMech{bias: bias} }

func (ugalMech) Name() string      { return "UGAL" }
func (ugalMech) NonMinimal() bool  { return true }
func (m ugalMech) NewState() State { return &ugalState{bias: m.bias} }

// ugalState prices each Valiant detour in a scratch path and copies it out
// only when the detour wins, so a choice that keeps the minimal path
// allocates nothing.
type ugalState struct {
	bias   int
	detour graph.Path
}

func (st *ugalState) Choose(v *View, src, dst graph.NodeID, load LoadEstimator, rng *xrand.RNG) (graph.Path, int) {
	if src == dst {
		return v.SamePath(src), -1
	}
	ps, mask := v.Candidates(src, dst)
	if mask == 0 {
		return nil, -1
	}
	minIdx := faults.FirstSet(mask)
	minPath := ps[minIdx]
	if v.NumNodes < 3 {
		return minPath, minIdx // no switch can be the intermediate
	}
	mid := randomIntermediate(v.NumNodes, src, dst, rng)
	la, ma := v.Candidates(src, mid)
	lb, mb := v.Candidates(mid, dst)
	if ma == 0 || mb == 0 {
		return minPath, minIdx
	}
	nonMin := st.compose(la[faults.FirstSet(ma)], lb[faults.FirstSet(mb)])
	if (v.MaxHops <= 0 || nonMin.Hops() <= v.MaxHops) && load.PathCost(nonMin)+st.bias < load.PathCost(minPath) {
		return slices.Clone(nonMin), -1
	}
	return minPath, minIdx
}

// randomIntermediate draws a switch different from both endpoints, of
// which there must be at least three.
func randomIntermediate(n int, src, dst graph.NodeID, rng *xrand.RNG) graph.NodeID {
	for {
		mid := graph.NodeID(rng.IntN(n))
		if mid != src && mid != dst {
			return mid
		}
	}
}

// compose concatenates the two legs of a Valiant detour into the state's
// scratch path, which the next call overwrites.
func (st *ugalState) compose(a, b graph.Path) graph.Path {
	st.detour = append(append(st.detour[:0], a...), b[1:]...)
	return st.detour
}

// --- KSP-UGAL -----------------------------------------------------------------

type kspUgalMech struct{ bias int }

// KSPUGAL restricts UGAL's non-minimal choice to the k candidate paths:
// the pair's first live candidate is the minimal one and one random other
// live candidate is the non-minimal one; the packet takes the one with
// the smaller estimated latency.
func KSPUGAL() Mechanism { return kspUgalMech{} }

// KSPUGALBiased is KSPUGAL with an additive bias toward the minimal path,
// for the ablation study (the paper uses bias 0).
func KSPUGALBiased(bias int) Mechanism { return kspUgalMech{bias: bias} }

func (kspUgalMech) Name() string      { return "KSP-UGAL" }
func (kspUgalMech) NonMinimal() bool  { return false }
func (m kspUgalMech) NewState() State { return kspUgalState{bias: m.bias} }

type kspUgalState struct{ bias int }

func (st kspUgalState) Choose(v *View, src, dst graph.NodeID, load LoadEstimator, rng *xrand.RNG) (graph.Path, int) {
	if src == dst {
		return v.SamePath(src), -1
	}
	ps, mask := v.Candidates(src, dst)
	if mask == 0 {
		return nil, -1
	}
	minIdx := faults.FirstSet(mask)
	minPath := ps[minIdx]
	live := faults.PopCount(mask)
	if live == 1 {
		return minPath, minIdx
	}
	altIdx := faults.NthSet(mask, 1+rng.IntN(live-1))
	if load.PathCost(ps[altIdx])+st.bias < load.PathCost(minPath) {
		return ps[altIdx], altIdx
	}
	return minPath, minIdx
}

// --- KSP-adaptive ---------------------------------------------------------------

type kspAdaptiveMech struct{}

// KSPAdaptive is the paper's proposed mechanism: sample two distinct
// random live candidates from the k paths (without designating either as
// minimal) and send the packet on the one with the smaller estimated
// latency.
func KSPAdaptive() Mechanism { return kspAdaptiveMech{} }

func (kspAdaptiveMech) Name() string     { return "KSP-adaptive" }
func (kspAdaptiveMech) NonMinimal() bool { return false }
func (kspAdaptiveMech) NewState() State  { return kspAdaptiveState{} }

type kspAdaptiveState struct{}

func (kspAdaptiveState) Choose(v *View, src, dst graph.NodeID, load LoadEstimator, rng *xrand.RNG) (graph.Path, int) {
	if src == dst {
		return v.SamePath(src), -1
	}
	ps, mask := v.Candidates(src, dst)
	if mask == 0 {
		return nil, -1
	}
	live := faults.PopCount(mask)
	if live == 1 {
		i := faults.FirstSet(mask)
		return ps[i], i
	}
	i, j := rng.TwoDistinct(live)
	ii, jj := faults.NthSet(mask, i), faults.NthSet(mask, j)
	if load.PathCost(ps[jj]) < load.PathCost(ps[ii]) {
		return ps[jj], jj
	}
	return ps[ii], ii
}
