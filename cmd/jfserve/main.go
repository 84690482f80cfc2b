// Command jfserve is the long-lived route oracle: it keeps warm path
// databases resident and answers route/estimate queries over a
// newline-delimited JSON protocol (docs/SERVICE.md) on a Unix socket or
// TCP listener.
//
//	jfserve -listen unix:/tmp/jfserve.sock -path-cache /var/tmp/jfpaths \
//	        -preload small,medium
//
// preloads the paper's small and medium topologies (streaming from the
// path cache when jftopo -warm-paths populated it) and serves until
// SIGINT/SIGTERM, draining in-flight requests on shutdown. Without
// -preload, clients load topologies themselves via topo-load. A
// -cpuprofile covers the whole invocation; it and a -memprofile heap
// profile are written once the daemon has drained. Try it with nc:
//
//	printf '%s\n' '{"v":1,"op":"topo-load","params":{"topo":"small"}}' \
//	  | nc -U /tmp/jfserve.sock
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/cliflags"
	"repro/internal/serve"
)

func main() {
	var (
		listen    = cliflags.Listen("unix:/tmp/jfserve.sock")
		preload   = flag.String("preload", "", "comma-separated topologies to load at startup (small, medium, large)")
		selector  = flag.String("selector", "rEDKSP", "path selector for -preload: KSP, rKSP, EDKSP or rEDKSP")
		k         = flag.Int("k", 8, "paths per switch pair for -preload")
		seed      = flag.Uint64("seed", 1, "experiment seed for -preload (same derivation as the experiment binaries' -seed)")
		mechanism = cliflags.Mechanism("ksp-adaptive")
		estimator = flag.String("estimator", "link-load", "load estimator: zero, hops or link-load")
		pairs     = flag.Int("pairs", 0, "pair sample size for -preload (0 = all ordered pairs)")
		workers   = flag.Int("workers", 0, "build worker goroutines (0 = GOMAXPROCS)")
		quiet     = flag.Bool("quiet", false, "suppress lifecycle logging")
		pathCache = cliflags.PathCache()
		limits    = cliflags.ServeLimitFlags()
		prof      = cliflags.ProfileFlags()
	)
	flag.Parse()
	if err := prof.Start(); err != nil {
		fatal(err)
	}
	defer prof.Stop()

	network, addr, err := serve.SplitListenSpec(*listen)
	if err != nil {
		fatal(err)
	}
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
	if *quiet {
		logf = nil
	}
	srv := serve.NewServer(serve.Options{
		PathCache:      *pathCache,
		Workers:        *workers,
		Logf:           logf,
		Stripes:        *limits.Stripes,
		MaxConns:       *limits.MaxConns,
		MaxInFlight:    *limits.MaxInFlight,
		MaxSweeps:      *limits.MaxSweeps,
		ReadTimeout:    *limits.ReadTimeout,
		WriteTimeout:   *limits.WriteTimeout,
		HandlerTimeout: *limits.HandlerTimeout,
	})

	for _, topo := range splitList(*preload) {
		res, err := srv.LoadTopology(serve.TopoParams{
			Topo: topo, Selector: *selector, K: *k, Seed: *seed,
			Mechanism: *mechanism, Estimator: *estimator, PairSample: *pairs,
		})
		if err != nil {
			fatal(fmt.Errorf("preload %s: %w", topo, err))
		}
		fmt.Printf("loaded %s: key %s (%d pairs, k=%d)\n", topo, res.Key, res.Pairs, res.K)
	}

	if network == "unix" {
		// A stale socket from a crashed run would fail the bind.
		os.Remove(addr)
	}
	l, err := net.Listen(network, addr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("jfserve: listening on %s:%s (JSON protocol v%d, binary v%d, see docs/SERVICE.md)\n",
		network, addr, serve.ProtocolVersion, serve.BinaryVersion)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	select {
	case s := <-sig:
		fmt.Printf("jfserve: %v, draining\n", s)
		srv.Stop()
		<-done
	case err := <-done:
		if err != nil {
			fatal(err)
		}
	}
	if network == "unix" {
		os.Remove(addr)
	}
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "jfserve:", err)
	os.Exit(1)
}
