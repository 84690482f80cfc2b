package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
)

// Host identifies the machine and build a results file was measured on.
type Host struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Commit     string `json:"commit"`
}

// ThisHost describes the running process. The commit comes from the
// build's VCS stamp, else from git, else "unknown".
func ThisHost() Host {
	h := Host{
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Commit: "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	if h.Commit == "unknown" {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			h.Commit = strings.TrimSpace(string(out))
		}
	}
	return h
}

// Series is one metric's values over repetitions, with its summary.
type Series struct {
	Unit   string    `json:"unit"`
	Better string    `json:"better"`
	Bound  float64   `json:"bound,omitempty"`
	Values []float64 `json:"values"`
	N      int       `json:"n"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
}

// WorkloadResults gathers one workload's repetitions.
type WorkloadResults struct {
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]*Series `json:"metrics"`
}

// Results is the file jfbench writes after running workloads.
type Results struct {
	Host      Host                        `json:"host"`
	Seconds   float64                     `json:"seconds"`
	Seeds     []uint64                    `json:"seeds"`
	Workloads map[string]*WorkloadResults `json:"workloads"`
}

// Add folds one run's outcome into the workload's series.
func (w *WorkloadResults) Add(correct bool, attempted, failed int64, metrics map[string]float64) {
	if w.Metrics == nil {
		w.Metrics = map[string]*Series{}
		w.Correct = true
	}
	w.Correct = w.Correct && correct
	w.Attempted += attempted
	w.Failed += failed
	for name, v := range metrics {
		s := w.Metrics[name]
		if s == nil {
			m, _ := metricByName(name)
			s = &Series{Unit: m.Unit, Better: m.Better, Bound: m.Bound}
			w.Metrics[name] = s
		}
		s.Values = append(s.Values, v)
		s.N = len(s.Values)
		s.Median = Median(s.Values)
		s.Q1, s.Q3 = Quartiles(s.Values)
	}
}

// ReadResults loads a results file.
func ReadResults(path string) (*Results, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var res Results
	if err := json.Unmarshal(b, &res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &res, nil
}

// Verdicts of Compare.
const (
	Improved   = "improved"
	Unchanged  = "unchanged"
	Worse      = "worse"
	Unresolved = "unresolved"
)

// Verdict judges one end-to-end metric of a change against its parent.
// Values are paired by repetition index (the same seed on both sides when
// both files were made with the same -seed and -reps; alternate the two
// commits' runs). The change is:
//
//   - improved when it wins at least nine tenths of the pairs and the
//     medians differ by more than the parent's interquartile range;
//   - worse when its median is worse than the parent's by more than the
//     bound;
//   - unresolved when the parent's spread is wider than the bound, unless
//     every run of the change reads better (or, for worse, every run
//     reads worse) than every run of the parent;
//   - unchanged otherwise.
func Verdict(base, cur *Series, bound float64) string {
	sign := 1.0 // positive delta = worse
	if base.Better == "higher" {
		sign = -1
	}
	worse := func(a, b float64) bool { return sign*(a-b) > 0 } // a worse than b
	n := min(len(base.Values), len(cur.Values))
	wins := 0
	for i := 0; i < n; i++ {
		if worse(base.Values[i], cur.Values[i]) {
			wins++
		}
	}
	allBetter, allWorse := true, true
	for _, b := range base.Values {
		for _, c := range cur.Values {
			allBetter = allBetter && worse(b, c)
			allWorse = allWorse && worse(c, b)
		}
	}
	wide := Spread(base.Values) > bound
	change := sign * (cur.Median - base.Median) / math.Abs(base.Median)
	switch {
	case n > 0 && wins*10 >= 9*n && math.Abs(cur.Median-base.Median) > base.Q3-base.Q1 && change < 0:
		return Improved
	case change > bound && (!wide || allWorse):
		return Worse
	case wide && !allBetter:
		return Unresolved
	}
	return Unchanged
}

// Compare writes one row per workload and end-to-end metric present in
// both files and reports whether any verdict is worse.
func Compare(w io.Writer, base, cur *Results) (anyWorse bool) {
	if base.Host != cur.Host {
		fmt.Fprintf(w, "note: hosts differ: %+v vs %+v\n", base.Host, cur.Host)
	}
	fmt.Fprintf(w, "%-20s %-15s %-36s %-36s %8s  %s\n", "workload", "metric", "base median [q1, q3] n", "new median [q1, q3] n", "change", "verdict")
	for _, wl := range Workloads {
		bw, cw := base.Workloads[wl], cur.Workloads[wl]
		if bw == nil || cw == nil {
			continue
		}
		for _, m := range EndToEnd {
			bs, cs := bw.Metrics[m.Name], cw.Metrics[m.Name]
			if bs == nil || cs == nil {
				continue
			}
			v := Verdict(bs, cs, m.Bound)
			anyWorse = anyWorse || v == Worse
			fmt.Fprintf(w, "%-20s %-15s %-36s %-36s %+7.1f%%  %s\n", wl, m.Name, summary(bs), summary(cs),
				100*(cs.Median-bs.Median)/math.Abs(bs.Median), v)
		}
		if !cw.Correct {
			fmt.Fprintf(w, "%-20s new side failed its checks (%d of %d operations)\n", wl, cw.Failed, cw.Attempted)
			anyWorse = true
		}
	}
	return anyWorse
}

func summary(s *Series) string {
	return fmt.Sprintf("%.6g [%.6g, %.6g] %d", s.Median, s.Q1, s.Q3, s.N)
}
