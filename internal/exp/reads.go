package exp

import (
	"slices"

	"repro/internal/graph"
	"repro/internal/jellyfish"
	"repro/internal/paths"
	"repro/internal/routing"
	"repro/internal/traffic"
)

// Each run builds its path DBs over exactly the ordered switch pairs it
// reads, worked out from its inputs with a readSet. A pair's path set
// depends only on (seed, src, dst), so any DB holding those pairs gives
// the same results, and building no others keeps a run that reads a
// sliver of a big topology cheap: Figure 5's medium inputs read 23,950
// of 517,680 pairs.

// readSet collects the ordered switch pairs one run reads from its path
// DBs.
type readSet struct {
	topo *jellyfish.Topology
	n    int
	read []bool // read[s*n+d]: the run reads s->d; nil when it reads any pair
}

// newReadSet starts the read set of a run on topo: every pair when
// anyPair is set, else the flow ends added to it.
func newReadSet(topo *jellyfish.Topology, anyPair bool) *readSet {
	r := &readSet{topo: topo, n: topo.G.NumNodes()}
	if !anyPair {
		r.read = make([]bool, r.n*r.n)
	}
	return r
}

// readsAny reports whether a run routed by mechs can read any pair of its
// DBs: a non-minimal mechanism's detour legs run through random
// intermediates, and when links fail (faulted) a reroute starts from
// whatever switch a packet stands on.
func readsAny(mechs []routing.Mechanism, faulted bool) bool {
	return faulted || slices.ContainsFunc(mechs, func(m routing.Mechanism) bool { return m != nil && m.NonMinimal() })
}

// add marks the switch pair at the ends of a flow between two terminals.
func (r *readSet) add(src, dst int) {
	if r.read != nil {
		r.read[int(r.topo.SwitchOf(src))*r.n+int(r.topo.SwitchOf(dst))] = true
	}
}

// addPattern marks the ends of every flow of pat.
func (r *readSet) addPattern(pat traffic.Pattern) {
	for _, f := range pat.Flows {
		r.add(f.Src, f.Dst)
	}
}

// patternReads returns the switch pairs at the ends of the flows of pats.
func patternReads(topo *jellyfish.Topology, pats ...traffic.Pattern) []paths.Pair {
	r := newReadSet(topo, false)
	for _, pat := range pats {
		r.addPattern(pat)
	}
	return r.pairs()
}

// addFlows marks the ends of every flow of a workload.
func (r *readSet) addFlows(flows []traffic.SizedFlow) {
	for _, f := range flows {
		r.add(f.Src, f.Dst)
	}
}

// pairs lists the marked pairs, self pairs left out, in ascending
// (src, dst) order.
func (r *readSet) pairs() []paths.Pair {
	if r.read == nil {
		return paths.AllOrderedPairs(r.n)
	}
	var out []paths.Pair
	for i, read := range r.read {
		if s, d := i/r.n, i%r.n; read && s != d {
			out = append(out, paths.Pair{Src: graph.NodeID(s), Dst: graph.NodeID(d)})
		}
	}
	return out
}
