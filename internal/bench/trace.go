package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/xrand"
)

// Span is one timed interval around a call into a layer, recorded by the
// benchmark's own code. Times are nanoseconds since the run started.
type Span struct {
	Trace  uint64             `json:"trace"`
	ID     uint64             `json:"id"`
	Parent uint64             `json:"parent,omitempty"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

// tracer keeps a run's spans in memory; every span of a run carries the
// run's seed as its trace id. A disabled tracer still hands out spans, so
// workloads time their calls the same way traced or not, but records
// nothing.
type tracer struct {
	on    bool
	trace uint64
	t0    time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []Span
}

func newTracer(on bool, trace uint64) *tracer {
	return &tracer{on: on, trace: trace, t0: time.Now()}
}

// span is an open interval; end closes it.
type span struct {
	tr     *tracer
	id     uint64
	parent uint64
	name   string
	start  time.Time
	attrs  map[string]float64
}

// start opens a span named name under parent (nil for a root span).
func (tr *tracer) start(parent *span, name string) *span {
	s := &span{tr: tr, name: name, start: time.Now()}
	if tr.on {
		s.id = tr.ids.Add(1)
		if parent != nil {
			s.parent = parent.id
		}
	}
	return s
}

// set records a numeric attribute (traced runs only).
func (s *span) set(key string, v float64) {
	if !s.tr.on {
		return
	}
	if s.attrs == nil {
		s.attrs = make(map[string]float64, 4)
	}
	s.attrs[key] = v
}

// end closes the span and returns its duration.
func (s *span) end() time.Duration {
	now := time.Now()
	d := now.Sub(s.start)
	if s.tr.on {
		sp := Span{
			Trace: s.tr.trace, ID: s.id, Parent: s.parent, Name: s.name,
			Start: s.start.Sub(s.tr.t0).Nanoseconds(), End: now.Sub(s.tr.t0).Nanoseconds(),
			Attrs: s.attrs,
		}
		s.tr.mu.Lock()
		s.tr.spans = append(s.tr.spans, sp)
		s.tr.mu.Unlock()
	}
	return d
}

// Spans returns the recorded spans ordered by start time.
func (tr *tracer) Spans() []Span {
	tr.mu.Lock()
	out := append([]Span(nil), tr.spans...)
	tr.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// WriteSpans writes one JSON object per line.
func WriteSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// SelfTimes returns, per span id, the span's duration minus the part of
// its interval covered by the union of its children's intervals.
// Overlapping children (parallel workers) are counted once.
func SelfTimes(spans []Span) map[uint64]int64 {
	type iv struct{ lo, hi int64 }
	kids := make(map[uint64][]iv)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.End})
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].lo < cs[j].lo })
		covered, reach := int64(0), s.Start
		for _, c := range cs {
			lo, hi := max(c.lo, reach), min(c.hi, s.End)
			if hi > lo {
				covered += hi - lo
			}
			reach = max(reach, min(c.hi, s.End))
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// sampleEvery is the call-sampling period of the counting wrappers: every
// call is counted, one call in sampleEvery is timed, and summed time is
// scaled up. Timing every call would add two clock reads (about 100 ns on
// a 2-CPU x86-64 VM) to calls that themselves take a few hundred
// nanoseconds.
const sampleEvery = 16

// callStats counts and times the calls through one wrapper. It belongs to
// one simulator run and is not shared between goroutines.
type callStats struct {
	calls, timed int64
	timedNs      int64
}

// estNs is the estimated total time of all calls: the timed calls' mean,
// less the clockNs one clock read adds to each timed interval, times the
// call count.
func (c *callStats) estNs(clockNs float64) float64 {
	if c.timed == 0 {
		return 0
	}
	mean := float64(c.timedNs)/float64(c.timed) - clockNs
	return max(0, mean) * float64(c.calls)
}

// countedMechanism wraps a routing.Mechanism so every Choose of the runs it
// configures is counted and sampled into stats.
type countedMechanism struct {
	routing.Mechanism
	stats *callStats
}

func (m countedMechanism) NewState() routing.State {
	return &countedState{inner: m.Mechanism.NewState(), stats: m.stats}
}

type countedState struct {
	inner routing.State
	stats *callStats
}

func (s *countedState) Choose(v *routing.View, src, dst graph.NodeID, load routing.LoadEstimator, rng *xrand.RNG) (graph.Path, int) {
	c := s.stats
	c.calls++
	if c.calls%sampleEvery != 0 {
		return s.inner.Choose(v, src, dst, load, rng)
	}
	t := time.Now()
	p, i := s.inner.Choose(v, src, dst, load, rng)
	c.timedNs += time.Since(t).Nanoseconds()
	c.timed++
	return p, i
}

// pathProvider is the candidate-path interface both simulators take
// (flitsim.PathProvider and appsim.PathProvider have this method set).
type pathProvider interface {
	Paths(s, d graph.NodeID) []graph.Path
}

// countedProvider wraps a path provider (a *paths.DB) so every candidate
// lookup is counted and sampled into stats.
type countedProvider struct {
	inner pathProvider
	stats *callStats
}

func (p countedProvider) Paths(s, d graph.NodeID) []graph.Path {
	c := p.stats
	c.calls++
	if c.calls%sampleEvery != 0 {
		return p.inner.Paths(s, d)
	}
	t := time.Now()
	ps := p.inner.Paths(s, d)
	c.timedNs += time.Since(t).Nanoseconds()
	c.timed++
	return ps
}

// layerCalls holds the counted wrappers for one simulator run.
type layerCalls struct {
	choose, lookup callStats
}

// wrap returns the mechanism and provider a run should use: the originals
// when tracing is off, counting wrappers feeding lc when it is on.
func (lc *layerCalls) wrap(on bool, m routing.Mechanism, p pathProvider) (routing.Mechanism, pathProvider) {
	if !on {
		return m, p
	}
	return countedMechanism{Mechanism: m, stats: &lc.choose}, countedProvider{inner: p, stats: &lc.lookup}
}

// clockNs measures the interval an empty time.Now/time.Since pair reads,
// the bias every timed call carries.
func clockNs() float64 {
	const n = 1 << 16
	var sum time.Duration
	for i := 0; i < n; i++ {
		t := time.Now()
		sum += time.Since(t)
	}
	return float64(sum) / n
}

// wrapperOverheadNs measures what the counting wrappers add per call: the
// difference between calling a trivial Choose and provider lookup through
// the wrappers and directly, averaged over many calls. trace.overhead_frac
// is this cost times the calls a traced run made, over the run's time.
func wrapperOverheadNs() float64 {
	const n = 1 << 20
	var direct, wrapped time.Duration
	var ps trivialProvider
	var lc layerCalls
	m, p := lc.wrap(true, trivialMech{}, ps)
	st := m.NewState()
	raw := trivialMech{}.NewState()
	for round := 0; round < 3; round++ {
		t := time.Now()
		for i := 0; i < n; i++ {
			raw.Choose(nil, 0, 1, nil, nil)
			ps.Paths(0, 1)
		}
		direct += time.Since(t)
		t = time.Now()
		for i := 0; i < n; i++ {
			st.Choose(nil, 0, 1, nil, nil)
			p.Paths(0, 1)
		}
		wrapped += time.Since(t)
	}
	// Two wrapped calls per iteration.
	return max(0, float64(wrapped-direct)/float64(3*n)/2)
}

type trivialMech struct{}

func (trivialMech) Name() string            { return "trivial" }
func (trivialMech) NonMinimal() bool        { return false }
func (trivialMech) NewState() routing.State { return trivialState{} }

type trivialState struct{}

//go:noinline
func (trivialState) Choose(*routing.View, graph.NodeID, graph.NodeID, routing.LoadEstimator, *xrand.RNG) (graph.Path, int) {
	return nil, -1
}

type trivialProvider struct{}

//go:noinline
func (trivialProvider) Paths(graph.NodeID, graph.NodeID) []graph.Path { return nil }
