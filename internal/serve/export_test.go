package serve

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
