// Package faults is the one model of link failures: a deterministic,
// seeded Schedule of timed link-down/link-up events that both simulators
// (flitsim, appsim) apply while a run is in flight, and a State that
// tracks which links are currently dead so every routing mechanism can
// degrade gracefully instead of panicking or stranding packets. The
// static study, exp.FaultResilience — how many precomputed paths survive
// a set of dead links — draws its failure sets with Random and counts
// intact paths with State.PathAlive, so both fault studies judge a link
// and a path the same way.
//
// The pieces:
//
//   - Event / Schedule — a sorted list of timed link-down/link-up events on
//     undirected edges, built from explicit scripts or seeded random edge
//     sets (Random). Schedules serialize to a compact line-oriented text
//     format (format.go) so a failure scenario can be archived and
//     replayed bit-identically.
//
//   - State (state.go) — per-run fault tracking: an O(1) failed-bit per
//     directed link, a per-pair path-liveness bitmap cache invalidated by
//     an epoch counter bumped on every fault event, and Remove-Find repair
//     of fully-dead path sets on a failed-edge-filtered copy of the graph.
//
// Everything is deterministic: schedules derive from explicit seeds,
// repair reseeds per pair exactly like paths.DB, and a simulator given an
// empty schedule makes no extra RNG draws, so its results stay
// bit-identical to a run with no fault machinery attached.
package faults

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// Event is one timed change to a single undirected link {U, V}. At is the
// absolute simulation cycle (cycle 0 is the first cycle of the run,
// including any warmup) at which the event takes effect, before any
// traffic moves in that cycle.
type Event struct {
	At int64
	// Up is false for link-down and true for link-up (restoration).
	Up   bool
	U, V graph.NodeID
}

// String renders the event in the schedule text format.
func (e Event) String() string {
	verb := "down"
	if e.Up {
		verb = "up"
	}
	return fmt.Sprintf("%s %d %d %d", verb, e.At, e.U, e.V)
}

// Schedule is an immutable, time-sorted list of fault events. The zero
// value and nil are both valid empty schedules.
type Schedule struct {
	events []Event
}

// NewSchedule builds a schedule from events, sorting them by time (stable,
// so same-cycle events keep their given order). It returns an error for
// negative times, self-loop edges, or negative node ids; edge existence is
// checked later against the concrete graph by NewState.
func NewSchedule(events []Event) (*Schedule, error) {
	out := make([]Event, len(events))
	copy(out, events)
	for _, e := range out {
		if e.At < 0 {
			return nil, fmt.Errorf("faults: negative event time %d", e.At)
		}
		if e.U < 0 || e.V < 0 {
			return nil, fmt.Errorf("faults: negative node in event %v", e)
		}
		if e.U == e.V {
			return nil, fmt.Errorf("faults: self-loop event on node %d", e.U)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return &Schedule{events: out}, nil
}

// MustSchedule is NewSchedule for events known valid; it panics on error.
func MustSchedule(events []Event) *Schedule {
	s, err := NewSchedule(events)
	if err != nil {
		panic(err)
	}
	return s
}

// Events returns the sorted events. The returned slice is owned by the
// schedule and must not be modified. A nil schedule returns nil.
func (s *Schedule) Events() []Event {
	if s == nil {
		return nil
	}
	return s.events
}

// Len returns the event count (0 for a nil schedule).
func (s *Schedule) Len() int {
	if s == nil {
		return 0
	}
	return len(s.events)
}

// Empty reports whether the schedule has no events.
func (s *Schedule) Empty() bool { return s.Len() == 0 }

// undirectedEdges enumerates g's undirected edges once, ordered by
// (min endpoint, max endpoint) — the deterministic order Random samples
// from.
func undirectedEdges(g *graph.Graph) [][2]graph.NodeID {
	edges := make([][2]graph.NodeID, 0, g.NumEdges())
	for u, v := range g.Edges() {
		edges = append(edges, [2]graph.NodeID{u, v})
	}
	return edges
}

// Random builds a schedule failing n distinct uniformly random links of g
// at cycle at, drawn from rng (one SampleK over the links in
// undirectedEdges' order). It returns an error if n exceeds the edge
// count.
func Random(g *graph.Graph, n int, at int64, rng *xrand.RNG) (*Schedule, error) {
	edges := undirectedEdges(g)
	if n < 0 || n > len(edges) {
		return nil, fmt.Errorf("faults: cannot fail %d of %d links", n, len(edges))
	}
	events := make([]Event, 0, n)
	for _, idx := range rng.SampleK(len(edges), n) {
		e := edges[idx]
		events = append(events, Event{At: at, U: e[0], V: e[1]})
	}
	return NewSchedule(events)
}

// PathDown builds a schedule failing every link of the given path at cycle
// at — the "kill one whole candidate path" scenario the edge-disjoint
// selectors are designed to survive. The simulators' and routing's fault
// tests build their fixtures with it.
func PathDown(p graph.Path, at int64) (*Schedule, error) {
	events := make([]Event, 0, p.Hops())
	for i := 0; i+1 < len(p); i++ {
		events = append(events, Event{At: at, U: p[i], V: p[i+1]})
	}
	return NewSchedule(events)
}

// Policy selects what the simulators do with traffic caught on a failed
// link and with pairs whose entire candidate set dies. The zero value is
// the graceful default: requeue affected packets onto a surviving path and
// repair dead pairs by recomputing on the failed-edge-filtered graph.
type Policy struct {
	// Drop discards packets queued on or in flight over a failed link
	// instead of requeueing them onto a surviving path. (Packets whose
	// requeue fails — no surviving path, no buffer space, or a repaired
	// path longer than the VC budget — are dropped under either setting.)
	Drop bool
	// NoRepair disables recomputing a pair's path set when every candidate
	// is dead; such pairs become unroutable until a link-up event revives
	// one of their paths.
	NoRepair bool
}

// String names the policy as accepted by PolicyByName.
func (p Policy) String() string {
	s := "reroute"
	if p.Drop {
		s = "drop"
	}
	if p.NoRepair {
		s += "-norepair"
	}
	return s
}

// PolicyByName resolves a command-line policy name: "reroute" (default),
// "drop", "reroute-norepair" or "drop-norepair".
func PolicyByName(name string) (Policy, error) {
	switch name {
	case "", "reroute":
		return Policy{}, nil
	case "drop":
		return Policy{Drop: true}, nil
	case "reroute-norepair":
		return Policy{NoRepair: true}, nil
	case "drop-norepair":
		return Policy{Drop: true, NoRepair: true}, nil
	}
	return Policy{}, fmt.Errorf("faults: unknown policy %q (want reroute, drop, reroute-norepair or drop-norepair)", name)
}
