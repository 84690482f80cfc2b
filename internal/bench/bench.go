// Package bench is jfbench, the repository's end-to-end benchmark. It
// runs four workloads that stress different layers of the stack — the
// Figure 9 flit-simulation pipeline, the Table V application replays,
// medium-scale path selection, and the jfserve route oracle — each for a
// fixed number of seconds on inputs generated from a seed. A run reports
// the end-to-end metrics in EndToEnd, or, traced, the per-layer metrics
// in PerLayer, checks every output it produced, and at seed 1 compares
// the results with the references in testdata/.
//
// Layers are timed from outside: the workloads call each module's public
// API and record a span around every call, and the calls too frequent for
// spans (routing.State.Choose and the simulators' candidate-path lookups)
// go through counting wrappers. Nothing outside this package changes to
// be measured.
package bench

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"repro/internal/flitsim"
	"repro/internal/traffic"
)

// Size holds the input sizes of every workload. Full is what the
// benchmark runs; Tiny is the same pipelines shrunk for the smoke test.
type Size struct {
	// SetupReps and SetupSeconds: each workload repeats its set-up at
	// least SetupReps times and for at least SetupSeconds; setup_s is the
	// median. Short set-ups thus repeat more, so their median does not
	// hang on one scheduling hiccup.
	SetupReps    int
	SetupSeconds float64
	// FlitRates is the Figure 9 offered-load sweep and PatternSamples the
	// number of random-shift instances (the paper's protocol is 10).
	FlitRates      []float64
	PatternSamples int
	// Stencils and BytesPerRank size the Table V replays.
	Stencils     []traffic.StencilKind
	BytesPerRank int64
	// RoundPairs is the pair sample each paths-medium round selects per
	// selector, SerialPairs the part of it also timed pair by pair.
	RoundPairs, SerialPairs int
	// BatchPairs is the routes-batch frame size and SweepPairs the
	// generated pairs per sweep in the serve workload.
	BatchPairs, SweepPairs int
	// Reference compares seed-1 results with testdata/reference.json,
	// which was recorded at this size.
	Reference bool
}

// Full is the benchmark's size.
var Full = Size{
	SetupReps:      5,
	SetupSeconds:   0.5,
	FlitRates:      flitsim.Rates(0.05, 1.0, 0.05),
	PatternSamples: 10,
	Stencils:       traffic.StencilKinds,
	BytesPerRank:   traffic.DefaultTotalBytes,
	RoundPairs:     2000,
	SerialPairs:    200,
	BatchPairs:     512,
	SweepPairs:     1 << 20,
	Reference:      true,
}

// Tiny runs every pipeline in well under a second of work.
var Tiny = Size{
	SetupReps:      2,
	FlitRates:      []float64{0.1, 0.6},
	PatternSamples: 2,
	Stencils:       traffic.StencilKinds[:1],
	BytesPerRank:   traffic.DefaultTotalBytes / 10,
	RoundPairs:     200,
	SerialPairs:    20,
	BatchPairs:     64,
	SweepPairs:     1 << 12,
}

// Options configures one run of one workload.
type Options struct {
	Workload string
	Seed     uint64
	// Seconds is how long the workload measures.
	Seconds float64
	// Trace records spans and reports the per-layer metrics.
	Trace bool
	Size  Size
	// Jfserve is the path of a built jfserve binary (serve workload only).
	Jfserve string
	// Log receives the human-readable report lines.
	Log io.Writer
}

// Result is one run's outcome.
type Result struct {
	Correct   bool
	Attempted int64
	Failed    int64
	// Problems lists the failed checks (empty when Correct).
	Problems []string
	// EndToEnd and PerLayer hold every metric of the corresponding list
	// (PerLayer only in traced runs).
	EndToEnd map[string]float64
	PerLayer map[string]float64
	Spans    []Span
}

// Workloads lists the workload names in run order.
var Workloads = []string{"fig9-shift-small", "tablev-linear-small", "paths-medium", "serve"}

// run is the state every workload shares: options, tracer, the root span,
// the correctness ledger and the metric maps.
type run struct {
	ctx      context.Context
	opts     Options
	tr       *tracer
	root     *span
	deadline time.Time

	mu  sync.Mutex // guards res and wrapped; workloads check from workers
	res *Result
	// wrapped counts the calls that went through counting wrappers, for
	// trace.overhead_frac.
	wrapped int64
	// clockNs is the bias one clock read adds to a timed call (traced
	// runs only).
	clockNs float64
}

func (r *run) logf(format string, args ...any) {
	if r.opts.Log != nil {
		fmt.Fprintf(r.opts.Log, format+"\n", args...)
	}
}

// check records one verified operation outcome: ok false marks the
// operation failed and the run incorrect.
func (r *run) check(ok bool, format string, args ...any) bool {
	return r.checkOps(ok, 1, format, args...)
}

// checkOps is check for an outcome covering n operations (a batch).
func (r *run) checkOps(ok bool, n int64, format string, args ...any) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !ok {
		r.res.Failed += n
		r.res.Correct = false
		if len(r.res.Problems) < 20 {
			r.res.Problems = append(r.res.Problems, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// fail records a check failure that is not tied to one operation.
func (r *run) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.res.Correct = false
	if len(r.res.Problems) < 20 {
		r.res.Problems = append(r.res.Problems, fmt.Sprintf(format, args...))
	}
}

// attempt counts n attempted operations and wrapped calls they made.
func (r *run) attempt(n, wrapped int64) {
	r.mu.Lock()
	r.res.Attempted += n
	r.wrapped += wrapped
	r.mu.Unlock()
}

func (r *run) e2e(name string, v float64)   { r.res.EndToEnd[name] = v }
func (r *run) layer(name string, v float64) { r.res.PerLayer[name] = v }

// setUp repeats a workload's set-up, each time under its own "setup"
// span, as Size asks, and records the median time as setup_s.
func (r *run) setUp(once func(sp *span) error) error {
	var secs []float64
	start := time.Now()
	for len(secs) < r.opts.Size.SetupReps || time.Since(start).Seconds() < r.opts.Size.SetupSeconds {
		sp := r.tr.start(r.root, "setup")
		if err := once(sp); err != nil {
			return err
		}
		secs = append(secs, sp.end().Seconds())
	}
	r.e2e("setup_s", Median(secs))
	return nil
}

// measuring reports whether the measurement window is still open.
func (r *run) measuring() bool { return time.Now().Before(r.deadline) }

// openWindow starts the measurement window of opts.Seconds.
func (r *run) openWindow() {
	r.deadline = time.Now().Add(time.Duration(r.opts.Seconds * float64(time.Second)))
}

// Run runs one workload and returns its result. An error means the run
// could not happen at all (bad options, a daemon that never started);
// failed checks are reported in the Result.
func Run(opts Options) (*Result, error) {
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		return nil, fmt.Errorf("bench: GOMAXPROCS %d exceeds the %d CPUs present; a parallel series would measure scheduling, not speed",
			runtime.GOMAXPROCS(0), runtime.NumCPU())
	}
	if opts.Seconds <= 0 {
		return nil, fmt.Errorf("bench: seconds must be positive, got %v", opts.Seconds)
	}
	body, ok := map[string]func(*run) error{
		"fig9-shift-small":    runFig9,
		"tablev-linear-small": runTableV,
		"paths-medium":        runPathsMedium,
		"serve":               runServe,
	}[opts.Workload]
	if !ok {
		return nil, fmt.Errorf("bench: unknown workload %q (want one of %v)", opts.Workload, Workloads)
	}
	r := &run{
		ctx:  context.Background(),
		opts: opts,
		tr:   newTracer(opts.Trace, opts.Seed),
		res: &Result{
			Correct:  true,
			EndToEnd: map[string]float64{}, PerLayer: map[string]float64{},
		},
	}
	var overheadNs float64
	if opts.Trace {
		overheadNs = wrapperOverheadNs()
		r.clockNs = clockNs()
	}
	if opts.Seed == 1 && opts.Size.Reference && !reference.complete() {
		r.fail("testdata/reference.json is incomplete; recompute it with go test -run TestReference -update")
	}
	r.root = r.tr.start(nil, "jfbench."+opts.Workload)
	if err := body(r); err != nil {
		return nil, err
	}
	wall := r.root.end()
	if r.res.Attempted == 0 {
		r.fail("no operation completed in %.1fs", opts.Seconds)
	}
	for _, m := range EndToEnd {
		if _, ok := r.res.EndToEnd[m.Name]; !ok {
			r.fail("metric %s was not measured", m.Name)
		}
	}
	if opts.Trace {
		r.res.Spans = r.tr.Spans()
		r.layer("trace.spans", float64(len(r.res.Spans)))
		r.layer("process.peak_rss_mb", maxRSSMiB())
		r.layer("trace.overhead_frac", overheadNs*float64(r.wrapped)/float64(wall.Nanoseconds()*int64(runtime.GOMAXPROCS(0))))
		for _, m := range PerLayer {
			if _, ok := r.res.PerLayer[m.Name]; !ok {
				r.res.PerLayer[m.Name] = 0
			}
		}
	}
	return r.res, nil
}

// liveHeapMiB is the heap this process's live objects occupy after a
// full collection. Called at the end of a measurement window, it is the
// state the workload holds (topology, path DBs, flows, anything they
// cache or leak). Unlike the resident set it does not depend on which
// simulations happened to overlap or when the collector ran; the peak
// resident set is process.peak_rss_mb.
func liveHeapMiB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// maxRSSMiB is this process's peak resident set.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuSeconds is this process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}
