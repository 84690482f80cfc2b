package serve

import "repro/internal/graph"

// TableOp is one opTable entry as the external tests see it.
type TableOp struct {
	Name string
	Code byte
	Test bool // registered only with Options.EnableTestOps
}

// TableOps lists opTable, so coverage tests derive their op lists from
// the one declaration instead of keeping their own.
func TableOps() []TableOp {
	out := make([]TableOp, len(opTable))
	for i, op := range opTable {
		out[i] = TableOp{Name: op.name, Code: op.code, Test: op.test}
	}
	return out
}

// LinkLoad reads the link-load count of the directed link u→v on the
// stripe owning u, the count a Choose from u prices that link by, as
// PathCost of the one-hop path u→v, together with that stripe's index.
// ok is false when key is not resident or not served by link-load.
func (s *Server) LinkLoad(key string, u, v int32) (count, stripe int, ok bool) {
	e, found := s.entry(key)
	if !found {
		return 0, 0, false
	}
	own := e.owner[u]
	st := &e.stripes[own]
	if st.ll == nil {
		return 0, 0, false
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.est.PathCost(graph.Path{u, v}), int(own), true
}
