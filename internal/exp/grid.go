package exp

import (
	"fmt"

	"repro/internal/flitsim"
	"repro/internal/jellyfish"
	"repro/internal/ksp"
	"repro/internal/par"
	"repro/internal/paths"
	"repro/internal/routing"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// The artifacts share one skeleton: build each topology sample with the
// state its jobs share (sample), run the jobs of the artifact's grid on
// par.For and fold their values into per-cell means in job order
// (runJobs, meanGrid), and render the means as a row x column table
// (gridTable).

// topoSample is one topology sample with what every job on it shares:
// the topology, the VC budget of its flit runs and one path DB per
// selector.
type topoSample struct {
	topo   *jellyfish.Topology
	numVCs int
	dbs    []*paths.DB
}

// sample builds topology sample ti of p: the VC budget of flit runs on it
// when vcs is set (see numVCs), and one path DB per selector of algs over
// the switch pairs reads lists for the topology (see pathDB). reads may
// also build the state its pairs depend on, such as fault schedules.
func (sc Scale) sample(p jellyfish.Params, ti int, vcs bool, algs []ksp.Algorithm,
	reads func(topo *jellyfish.Topology, ti int) ([]paths.Pair, error)) (*topoSample, error) {
	topo, err := sc.buildTopo(p, ti)
	if err != nil {
		return nil, err
	}
	s := &topoSample{topo: topo}
	if vcs {
		s.numVCs = sc.numVCs(topo)
	}
	prs, err := reads(topo, ti)
	if err != nil {
		return nil, err
	}
	for _, alg := range algs {
		db, err := sc.pathDB(topo, alg, ti, prs)
		if err != nil {
			return nil, err
		}
		s.dbs = append(s.dbs, db)
	}
	return s, nil
}

// samples builds topology samples 0..TopoSamples-1 of p (see sample).
func (sc Scale) samples(p jellyfish.Params, vcs bool, algs []ksp.Algorithm,
	reads func(topo *jellyfish.Topology, ti int) ([]paths.Pair, error)) ([]*topoSample, error) {
	out := make([]*topoSample, sc.TopoSamples)
	for ti := range out {
		var err error
		if out[ti], err = sc.sample(p, ti, vcs, algs, reads); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// flit is the configuration of a flit run on the sample with selector ai's
// paths; the caller sets the rate, or sweeps rates, and any faults.
func (s *topoSample) flit(ai int, mech routing.Mechanism, tr traffic.Sampler, seed uint64) flitsim.Config {
	return flitsim.Config{Topo: s.topo, Paths: s.dbs[ai], Mechanism: mech, Traffic: tr, NumVCs: s.numVCs, Seed: seed}
}

// jobGrid is the job list of an artifact: one job per combination of an
// index into each dimension, in row-major order (the last index varies
// fastest). A job's index in that order is its identity: seeds that
// derive from it stay fixed as long as the dimensions do.
type jobGrid []int

// len returns the number of jobs.
func (g jobGrid) len() int {
	n := 1
	for _, d := range g {
		n *= d
	}
	return n
}

// at returns the index into each dimension of job i.
func (g jobGrid) at(i int) []int {
	idx := make([]int, len(g))
	for d := len(g) - 1; d >= 0; d-- {
		idx[d], i = i%g[d], i/g[d]
	}
	return idx
}

// runJobs runs every job of g on par.For with workers goroutines, then
// hands each job's indices and value to fold in job order. It returns the
// error of the first job, in job order, that failed, folding nothing
// after it. Because fold sees the jobs in order, the sums it takes are
// the same however par.For scheduled them.
func runJobs[T any](g jobGrid, workers int, job func(i int, at []int) (T, error), fold func(at []int, v T)) error {
	vals := make([]T, g.len())
	errs := make([]error, len(vals))
	par.For(len(vals), workers, func(i int) { vals[i], errs[i] = job(i, g.at(i)) })
	for i, err := range errs {
		if err != nil {
			return err
		}
		fold(g.at(i), vals[i])
	}
	return nil
}

// meanGrid accumulates the mean of the values added to each cell of a
// rows x cols grid.
type meanGrid struct {
	sum [][]float64
	n   [][]int
}

func newMeanGrid(rows, cols int) *meanGrid {
	g := &meanGrid{sum: make([][]float64, rows), n: make([][]int, rows)}
	for r := range g.sum {
		g.sum[r], g.n[r] = make([]float64, cols), make([]int, cols)
	}
	return g
}

// add folds v into cell (r, c).
func (g *meanGrid) add(r, c int, v float64) {
	g.sum[r][c] += v
	g.n[r][c]++
}

// means turns each cell's sum into its mean, 0 for a cell nothing was
// added to, and returns the grid: call it once, after the last add.
func (g *meanGrid) means() [][]float64 {
	for r, row := range g.sum {
		for c := range row {
			if g.n[r][c] > 0 {
				row[c] /= float64(g.n[r][c])
			}
		}
	}
	return g.sum
}

// gridTable renders a grid: a first column headed corner that names the
// rows, one column per label of cols, and in each cell what cell returns
// for its row and column.
func gridTable(title, corner string, rows, cols []string, cell func(r, c int) string) *stats.Table {
	t := stats.NewTable(title, append([]string{corner}, cols...)...)
	for r, name := range rows {
		row := []string{name}
		for c := range cols {
			row = append(row, cell(r, c))
		}
		t.AddRow(row...)
	}
	return t
}

// labels formats each element of xs with format, for a grid's row labels.
func labels[T any](format string, xs []T) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf(format, x)
	}
	return out
}
