package faults

import (
	"fmt"
	"math/bits"

	"repro/internal/graph"
	"repro/internal/ksp"
	"repro/internal/telemetry"
	"repro/internal/xrand"
)

// RepairConfig tells a State how to recompute a pair's path set when every
// candidate dies: the same selector configuration and seed the pair's
// paths.DB was built with, so repaired paths are exactly what an eager
// build on the degraded graph would have produced.
type RepairConfig struct {
	KSP  ksp.Config
	Seed uint64
}

// repairSource is implemented by path providers (paths.DB) that can tell
// the fault machinery how to recompute a pair's set on a degraded graph.
type repairSource interface {
	Config() ksp.Config
	Seed() uint64
}

// RepairConfigOf extracts a repair recipe from a path provider, or nil
// when the provider cannot supply one (repair is then disabled). Both
// simulators call it when attaching a fault schedule.
func RepairConfigOf(p any) *RepairConfig {
	src, ok := p.(repairSource)
	if !ok {
		return nil
	}
	return &RepairConfig{KSP: src.Config(), Seed: src.Seed()}
}

// State is one simulation run's fault tracker. It applies a Schedule's
// events as the clock advances and answers, in O(1) on the hot path,
// whether a directed link is down and which of a pair's candidate paths
// are still alive.
//
// The liveness cache: per ordered pair, a bitmap with bit i set when
// candidate path i crosses no failed link, stamped with the epoch it was
// computed at. Every fault event bumps the epoch, so stale bitmaps are
// recomputed lazily on next use — O(k · path length) per pair per fault
// event, O(1) otherwise. A mask has 64 bits, so a candidate set holds at
// most 64 paths (the experiments and jfserve refuse k > 64).
//
// State is not safe for concurrent use while events are applied or
// candidates computed; give each simulator instance its own (schedules
// are immutable and may be shared). Once Advance has returned, PathAlive
// and LinkDown only read, so any number of goroutines may call them until
// the next Advance: exp.FaultResilience does so from par.For workers.
type State struct {
	g      *graph.Graph
	events []Event
	next   int
	policy Policy
	repair *RepairConfig
	maxLen int

	epoch   uint64
	numDown int
	downDir []bool // per directed link id; both directions of an edge move together

	live     map[uint64]liveEntry
	repaired map[uint64]repairEntry

	filtered      *graph.Graph
	filteredEpoch uint64
	comp          *ksp.Computer

	tel *telemetry.Collector

	downs, ups, repairs int64
}

type liveEntry struct {
	epoch uint64
	mask  uint64
}

type repairEntry struct {
	epoch uint64
	ps    []graph.Path
}

// NewState builds the per-run tracker. Every scheduled event must
// reference an existing edge of g. repair may be nil, which disables
// path-set recomputation regardless of policy (the path provider is not a
// *paths.DB, so there is no selector config to recompute with). maxLen,
// when positive, discards repaired or fallback paths longer than that
// many hops (the simulators pass their VC budget so a repaired path can
// never exceed the deadlock-freedom allocation).
func NewState(g *graph.Graph, sched *Schedule, policy Policy, repair *RepairConfig, maxLen int) (*State, error) {
	st := &State{
		g:        g,
		events:   sched.Events(),
		policy:   policy,
		repair:   repair,
		maxLen:   maxLen,
		downDir:  make([]bool, g.NumDirectedLinks()),
		live:     make(map[uint64]liveEntry),
		repaired: make(map[uint64]repairEntry),
	}
	if policy.NoRepair {
		st.repair = nil
	}
	for _, e := range st.events {
		if !g.HasEdge(e.U, e.V) {
			return nil, fmt.Errorf("faults: scheduled event %v references a non-edge", e)
		}
	}
	return st, nil
}

// SetTelemetry attaches a collector; fault events and repairs are counted
// into it. A nil collector is allowed (and costs nothing).
func (st *State) SetTelemetry(col *telemetry.Collector) { st.tel = col }

// Policy returns the configured policy.
func (st *State) Policy() Policy { return st.policy }

// Advance applies every event scheduled at or before clock and returns
// the slice of newly applied events (nil when none fired). Down events on
// an already-down edge and up events on an already-up edge are applied as
// no-ops but still reported, so callers can flush affected queues
// unconditionally.
func (st *State) Advance(clock int64) []Event {
	if st.next >= len(st.events) || st.events[st.next].At > clock {
		return nil
	}
	start := st.next
	for st.next < len(st.events) && st.events[st.next].At <= clock {
		e := st.events[st.next]
		st.apply(e)
		st.next++
	}
	fired := st.events[start:st.next]
	st.epoch++
	if st.tel != nil {
		st.tel.CountFaultEvents(int64(len(fired)))
		st.tel.SetLinksDown(int64(st.numDown))
	}
	return fired
}

func (st *State) apply(e Event) {
	down := !e.Up
	if down {
		st.downs++
	} else {
		st.ups++
	}
	id := st.g.LinkID(e.U, e.V)
	if st.downDir[id] == down {
		return // the edge is already in that state
	}
	if down {
		st.numDown++
	} else {
		st.numDown--
	}
	st.downDir[id] = down
	st.downDir[st.g.ReverseLink(id)] = down
}

// Active reports whether any link is currently down; when false,
// Candidates returns every configured candidate. The simulators' and
// routing's fault tests read it to check that a schedule has fired.
func (st *State) Active() bool { return st.numDown > 0 }

// LinkDown reports whether the directed network link id is down. Ids at
// or beyond the graph's link count (the simulators' injection/ejection
// pseudo-links) are never down.
func (st *State) LinkDown(link int32) bool {
	return int(link) < len(st.downDir) && st.downDir[link]
}

// Counters returns the cumulative applied down events, up events and
// path-set repairs.
func (st *State) Counters() (downs, ups, repairs int64) {
	return st.downs, st.ups, st.repairs
}

// PathAlive reports whether p crosses no failed link. Besides the
// liveness masks, exp.FaultResilience counts a pair's intact paths with
// it, and the simulators' fault tests call it as the oracle that no
// packet is routed over a dead link.
func (st *State) PathAlive(p graph.Path) bool {
	if st.numDown == 0 {
		return true
	}
	for i := 0; i+1 < len(p); i++ {
		if st.downDir[st.g.LinkID(p[i], p[i+1])] {
			return false
		}
	}
	return true
}

// liveMask returns the liveness bitmap for the pair's candidate list: bit
// i set when ps[i] crosses no failed link. Results are cached per pair
// and invalidated when a fault event changes the epoch.
func (st *State) liveMask(src, dst graph.NodeID, ps []graph.Path) uint64 {
	key := graph.PairKey(src, dst)
	if e, ok := st.live[key]; ok && e.epoch == st.epoch {
		return e.mask
	}
	var mask uint64
	for i, p := range ps {
		if st.PathAlive(p) {
			mask |= 1 << uint(i)
		}
	}
	st.live[key] = liveEntry{epoch: st.epoch, mask: mask}
	return mask
}

// Candidates returns the routable candidate set for the pair and its
// liveness mask. With no active faults it returns ps with a full mask
// (and touches no cache). When some candidates survive, it returns ps
// with the live-bit mask. When every candidate is dead it falls back to
// the repair path: recompute the pair's set on the failed-edge-filtered
// graph (nil, 0 when repair is disabled or the pair is disconnected).
func (st *State) Candidates(src, dst graph.NodeID, ps []graph.Path) ([]graph.Path, uint64) {
	if st.numDown == 0 {
		return ps, FullMask(len(ps))
	}
	if mask := st.liveMask(src, dst, ps); mask != 0 {
		return ps, mask
	}
	rp := st.repairSet(src, dst)
	if len(rp) == 0 {
		return nil, 0
	}
	return rp, FullMask(len(rp))
}

// repairSet returns the pair's recomputed path set on the current
// failed-edge-filtered graph, computing and caching it on first use per
// epoch. It returns nil when repair is disabled or the pair is
// disconnected in the degraded graph.
func (st *State) repairSet(src, dst graph.NodeID) []graph.Path {
	if st.repair == nil {
		return nil
	}
	key := graph.PairKey(src, dst)
	if e, ok := st.repaired[key]; ok && e.epoch == st.epoch {
		return e.ps
	}
	st.ensureFiltered()
	// Per-pair reseeding mirrors paths.DB.computeWith, so a repaired set
	// depends only on (seed, pair, failed edges) — never on discovery
	// order.
	st.comp.Reseed(st.repair.Seed, graph.PairKey(src, dst))
	ps := st.comp.Paths(src, dst)
	if st.maxLen > 0 {
		kept := ps[:0]
		for _, p := range ps {
			if p.Hops() <= st.maxLen {
				kept = append(kept, p)
			}
		}
		ps = kept
	}
	if len(ps) == 0 {
		ps = nil
	}
	st.repaired[key] = repairEntry{epoch: st.epoch, ps: ps}
	st.repairs++
	if st.tel != nil {
		st.tel.CountFaultRepair()
	}
	return ps
}

// ensureFiltered rebuilds the failed-edge-filtered graph view and its
// path computer when the epoch has moved since the last rebuild.
func (st *State) ensureFiltered() {
	if st.filtered != nil && st.filteredEpoch == st.epoch {
		return
	}
	b := st.g.Clone()
	for l, down := range st.downDir {
		if u, v := st.g.LinkEndpoints(int32(l)); down && u < v {
			b.RemoveEdge(u, v)
		}
	}
	st.filtered = b.Graph()
	st.filteredEpoch = st.epoch
	st.comp = ksp.NewComputer(st.filtered, st.repair.KSP, xrand.New(st.repair.Seed))
}

// FullMask returns a mask with the low n bits set (all 64 for n >= 64):
// the liveness mask of an n-path set with no failed link.
func FullMask(n int) uint64 { return 1<<uint(n) - 1 }

// PopCount returns the number of set bits.
func PopCount(mask uint64) int { return bits.OnesCount64(mask) }

// FirstSet returns the index of the lowest set bit (64 when mask is 0).
func FirstSet(mask uint64) int { return bits.TrailingZeros64(mask) }

// NthSet returns the index of the n-th (0-based) set bit of mask, which
// is n itself when the set bits are contiguous from bit 0 (a set with no
// failed link). It panics if mask has fewer than n+1 set bits.
func NthSet(mask uint64, n int) int {
	if mask&(mask+1) == 0 && uint(n) < uint(bits.Len64(mask)) {
		return n
	}
	for i := 0; i < n; i++ {
		mask &= mask - 1 // clear lowest set bit
	}
	if mask == 0 {
		panic("faults: NthSet beyond population")
	}
	return bits.TrailingZeros64(mask)
}

// NextSet returns the index of the first set bit of the low n bits at or
// after from, wrapping around to the lowest one when none is (so a from
// at or past n wraps at once). It panics if the low n bits are all 0.
func NextSet(mask uint64, from, n int) int {
	mask &= FullMask(n)
	if mask == 0 {
		panic("faults: NextSet on empty mask")
	}
	if rest := mask >> uint(from); rest != 0 {
		return from + bits.TrailingZeros64(rest)
	}
	return bits.TrailingZeros64(mask)
}
