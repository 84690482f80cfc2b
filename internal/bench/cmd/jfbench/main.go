// Command jfbench runs the repository's benchmark, package
// repro/internal/bench. Build and run it through run.sh, which builds
// jfserve next to it:
//
//	bash internal/bench/run.sh --workload serve --seed 1 --seconds 25 --trace 0
//
// runs one workload and prints every end-to-end metric (every per-layer
// metric with --trace 1), ending with one JSON line: {"correct",
// "attempted", "failed", "metrics"}. Without --workload it runs every
// workload, each in its own child process, -reps times with seeds seed,
// seed+1, ..., and writes the per-metric series with a host block to
// -out. -trace 1 adds one traced run per workload. -compare base.json
// new.json prints one verdict per workload and end-to-end metric.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/bench"
)

func main() {
	var (
		workload = flag.String("workload", "", "run only this workload, in this process: "+strings.Join(bench.Workloads, ", "))
		seed     = flag.Uint64("seed", 1, "input seed (the first of -reps consecutive seeds)")
		seconds  = flag.Float64("seconds", 25, "measurement seconds per workload run")
		trace    = flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
		spans    = flag.String("spans", "", "span file of a traced run (default: in the temp directory)")
		reps     = flag.Int("reps", 1, "untraced runs per workload, without -workload")
		out      = flag.String("out", "jfbench-results.json", "results file, without -workload")
		compare  = flag.Bool("compare", false, "compare two results files given as arguments")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two results files"))
		}
		base, err := bench.ReadResults(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		cur, err := bench.ReadResults(flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if bench.Compare(os.Stdout, base, cur) {
			os.Exit(1)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1"))
	}
	if *workload != "" {
		os.Exit(runOne(*workload, *seed, *seconds, *trace == 1, *spans))
	}
	if err := runAll(*seed, *seconds, *reps, *trace == 1, *spans, *out); err != nil {
		fatal(err)
	}
}

// line is the JSON line every single-workload run ends with.
type line struct {
	Correct   bool                    `json:"correct"`
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	Metrics   map[string]metricOutput `json:"metrics"`
}

type metricOutput struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne runs one workload in this process and returns the exit code.
func runOne(workload string, seed uint64, seconds float64, traced bool, spans string) int {
	exe, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	res, err := bench.Run(bench.Options{
		Workload: workload, Seed: seed, Seconds: seconds, Trace: traced, Size: bench.Full,
		Jfserve: filepath.Join(filepath.Dir(exe), "jfserve"), Log: os.Stdout,
	})
	if err != nil {
		fatal(err)
	}
	list, values := bench.EndToEnd, res.EndToEnd
	if traced {
		list, values = bench.PerLayer, res.PerLayer
		if spans == "" {
			spans = filepath.Join(os.TempDir(), fmt.Sprintf("jfbench-%s-seed%d.spans.jsonl", workload, seed))
		}
		if err := bench.WriteSpans(spans, res.Spans); err != nil {
			fatal(err)
		}
		fmt.Printf("%s: %d spans written to %s\n", workload, len(res.Spans), spans)
	}
	l := line{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metricOutput{}}
	for _, m := range list {
		fmt.Printf("%s %-32s %16.6g %s\n", workload, m.Name, values[m.Name], m.Unit)
		l.Metrics[m.Name] = metricOutput{values[m.Name], m.Unit}
	}
	for _, p := range res.Problems {
		fmt.Fprintf(os.Stderr, "%s: check failed: %s\n", workload, p)
	}
	b, err := json.Marshal(l)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload in child processes, reps untraced runs with
// consecutive seeds and, when traced, one traced run at the first seed,
// and writes the results file.
func runAll(seed uint64, seconds float64, reps int, traced bool, spans, out string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	res := bench.Results{Host: bench.ThisHost(), Seconds: seconds, Workloads: map[string]*bench.WorkloadResults{}}
	for i := range reps {
		res.Seeds = append(res.Seeds, seed+uint64(i))
	}
	fmt.Printf("host: %+v\n", res.Host)
	correct := true
	for _, w := range bench.Workloads {
		wr := &bench.WorkloadResults{}
		res.Workloads[w] = wr
		run := func(s uint64, tr bool) error {
			args := []string{"--workload", w, "--seed", strconv.FormatUint(s, 10),
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0"}
			if tr {
				args[len(args)-1] = "1"
				if spans != "" {
					args = append(args, "--spans", strings.TrimSuffix(spans, ".jsonl")+"-"+w+".jsonl")
				}
			}
			l, err := child(exe, w, args)
			if err != nil {
				return err
			}
			values := map[string]float64{}
			for name, m := range l.Metrics {
				values[name] = m.Value
			}
			wr.Add(l.Correct, l.Attempted, l.Failed, values)
			correct = correct && l.Correct
			return nil
		}
		for _, s := range res.Seeds {
			if err := run(s, false); err != nil {
				return err
			}
		}
		if traced {
			if err := run(seed, true); err != nil {
				return err
			}
		}
	}
	fmt.Println()
	for _, w := range bench.Workloads {
		wr := res.Workloads[w]
		for _, list := range [][]bench.Metric{bench.EndToEnd, bench.PerLayer} {
			for _, m := range list {
				if s := wr.Metrics[m.Name]; s != nil {
					fmt.Printf("%-20s %-32s %14.6g %-9s [%.6g, %.6g] n=%d\n", w, m.Name, s.Median, m.Unit, s.Q1, s.Q3, s.N)
				}
			}
		}
		fmt.Printf("%-20s correct=%v attempted=%d failed=%d\n", w, wr.Correct, wr.Attempted, wr.Failed)
	}
	b, err := json.MarshalIndent(&res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("results written to %s\n", out)
	if !correct {
		return fmt.Errorf("a correctness check failed")
	}
	return nil
}

// child runs one workload in a child process, echoing its report lines,
// and parses its result line.
func child(exe, workload string, args []string) (line, error) {
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	err := cmd.Run()
	var last string
	sc := bufio.NewScanner(&stdout)
	for sc.Scan() {
		if last != "" {
			fmt.Println(last)
		}
		last = sc.Text()
	}
	var l line
	if jerr := json.Unmarshal([]byte(last), &l); jerr != nil {
		return l, fmt.Errorf("%s %v: no result line (%v, exit: %v)", workload, args, jerr, err)
	}
	return l, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "jfbench:", err)
	os.Exit(2)
}
