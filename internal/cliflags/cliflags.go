// Package cliflags centralizes the flag wiring shared by the jfnet,
// jfapp and jfflit front ends: the -mechanism flag (parsed through the
// unified routing.ByName), the -telemetry/-selector pair, and the
// -faults/-fault-policy pair. A new mechanism name, fault policy or
// telemetry knob then lands in one place instead of three.
//
// All helpers register on the process-wide flag.CommandLine, matching
// how the cmd/ binaries define their remaining flags; call them before
// flag.Parse.
package cliflags

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/graph"
)

// Mechanism registers the shared -mechanism flag with the given default
// (a canonical name accepted by routing.ByName, e.g. "ksp-adaptive").
func Mechanism(def string) *string {
	return flag.String("mechanism", def,
		"routing mechanism: sp, random, round-robin, ugal, ksp-ugal or ksp-adaptive")
}

// Telemetry is the flag pair behind instrumented single runs.
type Telemetry struct {
	// Dir is the -telemetry export directory ("" = telemetry off).
	Dir *string
	// Selector is the -selector path-selection scheme name.
	Selector *string
}

// TelemetryFlags registers -telemetry and -selector. runDesc describes
// the instrumented run in the -telemetry usage string (e.g. "one
// instrumented flit-level simulation").
func TelemetryFlags(runDesc string) Telemetry {
	return Telemetry{
		Dir: flag.String("telemetry", "",
			"run "+runDesc+" and write telemetry files to this directory"),
		Selector: flag.String("selector", "rEDKSP",
			"path selector for -telemetry: KSP, rKSP, EDKSP or rEDKSP"),
	}
}

// Profile is the flag pair behind CPU and heap profiling of a whole
// invocation (see docs/PERFORMANCE.md for the workflow):
//
//	jfflit -experiment latency -topo small -cpuprofile cpu.pprof
//	go tool pprof cpu.pprof
type Profile struct {
	cpu, mem *string
	f        *os.File
}

// ProfileFlags registers -cpuprofile and -memprofile.
func ProfileFlags() *Profile {
	return &Profile{
		cpu: flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file"),
		mem: flag.String("memprofile", "", "write a heap profile at exit to this file"),
	}
}

// Start begins CPU profiling if -cpuprofile was given. Call after
// flag.Parse; pair with a deferred Stop.
func (p *Profile) Start() error {
	if *p.cpu == "" {
		return nil
	}
	f, err := os.Create(*p.cpu)
	if err != nil {
		return fmt.Errorf("cpuprofile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("cpuprofile: %w", err)
	}
	p.f = f
	return nil
}

// Stop flushes the CPU profile started by Start and, if -memprofile was
// given, writes a heap profile after a final GC. Errors are reported on
// stderr rather than returned: profiling must never turn a successful
// run into a failing one.
func (p *Profile) Stop() {
	if p.f != nil {
		pprof.StopCPUProfile()
		if err := p.f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
		}
		p.f = nil
	}
	if *p.mem != "" {
		f, err := os.Create(*p.mem)
		if err != nil {
			fmt.Fprintln(os.Stderr, "memprofile:", err)
			return
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "memprofile:", err)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "memprofile:", err)
		}
	}
}

// Stats registers the -stats flag: a one-look summary of a built
// topology's graph substrate (node/edge counts, packed CSR byte
// footprint, construction time), shared so any binary that builds a
// graph can report it identically.
func Stats() *bool {
	return flag.Bool("stats", false,
		"print graph substrate stats: node/edge counts, packed byte footprint, build time")
}

// PrintGraphStats writes the -stats block for a frozen graph. build is
// the wall time spent constructing (or loading) it.
func PrintGraphStats(w io.Writer, g *graph.Graph, build time.Duration) {
	fmt.Fprintf(w, "graph: %d nodes, %d edges, %d directed links\n",
		g.NumNodes(), g.NumEdges(), g.NumDirectedLinks())
	fb := g.FootprintBytes()
	perNode := 0.0
	if g.NumNodes() > 0 {
		perNode = float64(fb) / float64(g.NumNodes())
	}
	fmt.Fprintf(w, "packed footprint: %d bytes (%.1f B/node: CSR arena + offsets + link tables)\n",
		fb, perNode)
	fmt.Fprintf(w, "build time: %s\n", build.Round(time.Microsecond))
}

// PathCache registers the shared -path-cache flag: a directory for the
// on-disk path-DB cache. Empty (the default) leaves caching off, and
// each run builds its path DBs in-process over exactly the switch pairs
// it reads; a directory makes every experiment load its packed
// all-pairs DB from disk when a matching cache file exists and
// build-then-store it when not. The cache key covers topology, selector,
// k and seed, so a shared directory is safe across binaries and
// invocations (see docs/PATHS.md).
func PathCache() *string {
	return flag.String("path-cache", "",
		"directory for the on-disk all-pairs path-DB cache (empty = build each run's pairs in-process)")
}

// Listen registers the -listen flag used by the serving binaries: a
// listener spec of the form "unix:<socket path>" or "tcp:<host:port>",
// parsed by serve.SplitListenSpec (wire protocol: docs/SERVICE.md).
func Listen(def string) *string {
	return flag.String("listen", def,
		"listener spec: unix:<socket path> or tcp:<host:port>")
}

// ServeLimits is the flag set behind the jfserve resilience knobs
// (docs/SERVICE.md "Capacity planning"). The defaults are the
// production posture: bounded connections and in-flight work, generous
// I/O deadlines, and no handler timeout (a cold topo-load legitimately
// runs for minutes; enable -handler-timeout only with a warm -path-cache
// or -preload).
type ServeLimits struct {
	MaxConns       *int
	MaxInFlight    *int
	MaxSweeps      *int
	Stripes        *int
	ReadTimeout    *time.Duration
	WriteTimeout   *time.Duration
	HandlerTimeout *time.Duration
}

// ServeLimitFlags registers -max-conns, -max-inflight, -max-sweeps,
// -stripes, -read-timeout, -write-timeout and -handler-timeout. Zero
// disables the corresponding limit (for -stripes, zero means one stripe
// per GOMAXPROCS).
func ServeLimitFlags() ServeLimits {
	return ServeLimits{
		MaxConns: flag.Int("max-conns", 1024,
			"maximum concurrent connections; extras get one overloaded frame and are closed (0 = unlimited)"),
		MaxInFlight: flag.Int("max-inflight", 256,
			"maximum concurrently executing requests; extras are answered overloaded (0 = unlimited)"),
		MaxSweeps: flag.Int("max-sweeps", 16,
			"maximum concurrently streaming sweeps; extras are answered overloaded (0 = unlimited)"),
		Stripes: flag.Int("stripes", 0,
			"routing-state stripes per topology for parallel adaptive choice (0 = GOMAXPROCS)"),
		ReadTimeout: flag.Duration("read-timeout", 5*time.Minute,
			"per-request frame read deadline, doubling as the idle timeout (0 = none)"),
		WriteTimeout: flag.Duration("write-timeout", time.Minute,
			"per-response write deadline; a client not draining is disconnected (0 = none)"),
		HandlerTimeout: flag.Duration("handler-timeout", 0,
			"per-request handler execution bound, answered with the timeout code when exceeded (0 = none; cold topo-load can run minutes)"),
	}
}

// Faults is the flag pair behind fault injection.
type Faults struct {
	// Spec is the -faults schedule spec ("" = no faults).
	Spec *string
	// Policy is the -fault-policy name.
	Policy *string
}

// FaultFlags registers -faults and -fault-policy.
func FaultFlags() Faults {
	return Faults{
		Spec: flag.String("faults", "",
			"fault schedule: none, random:<n>@<cycle>[,...] or a schedule file (see docs/FAULTS.md)"),
		Policy: flag.String("fault-policy", "reroute",
			"fault policy: reroute, drop, reroute-norepair or drop-norepair"),
	}
}
