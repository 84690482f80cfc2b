# Pre-PR gate (documented in docs/ARCHITECTURE.md): formatting, vet,
# optional linters, race-detector runs of the concurrency-heavy packages
# and the fault-injection paths, full build. gofmt and go vet always run;
# staticcheck/govulncheck are optional-when-installed (see lint).
#
# check times no benchmark (too noisy for a gate), but bench-smoke runs
# each package microbenchmark once so an API change cannot break one
# unnoticed. `make bench`
# runs jfbench, the repository's one benchmark (internal/bench/README.md),
# over every workload and then the `go test -bench` microbenchmarks.
# Compare two jfbench results files with `make bench-diff BASE=a.json
# NEW=b.json`: several repetitions, alternating which commit runs first,
# on an idle machine, before trusting a delta (docs/PERFORMANCE.md).
.PHONY: check build test bench bench-check bench-diff bench-smoke fmt lint race-graph race-faults race-paths race-serve race-serve-v2 race-chaos race-flit-events flit-event-smoke fuzz serve-smoke chaos-smoke docs-check

check: fmt lint
	go vet ./...
	go test -race ./internal/telemetry/... ./internal/par/...
	$(MAKE) race-graph
	$(MAKE) race-faults
	$(MAKE) race-paths
	$(MAKE) race-serve
	$(MAKE) race-serve-v2
	$(MAKE) race-chaos
	$(MAKE) race-flit-events
	$(MAKE) flit-event-smoke
	$(MAKE) bench-smoke
	$(MAKE) fuzz
	$(MAKE) serve-smoke
	$(MAKE) docs-check
	$(MAKE) bench-check
	go build ./...

# gofmt -l prints offending files; fail if it prints anything.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# staticcheck and govulncheck run only when installed — the gate must
# stay usable on minimal containers without network access.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping"; fi

# Every layer shares one immutable packed graph across worker pools; build
# RRG(2000,24,19) — past the old dense-link-table gate — and run a parallel
# all-pairs BFS plus concurrent link-table readers over it under the race
# detector. The CSR arrays must be strictly read-only once frozen.
race-graph:
	go test -race -run 'ParallelAllPairsBFS|FingerprintGolden' ./internal/jellyfish ./internal/graph

# Fault injection touches shared simulator state from par.For workers;
# run every fault test under the race detector as a smoke gate.
race-faults:
	go test -race -run Fault ./...

# The path DB mixes lock-free packed-store reads with mutex-guarded lazy
# fills; run its concurrency regression tests under the race detector.
race-paths:
	go test -race -run 'Race|Concurrent' ./internal/paths

# jfserve serves one goroutine per connection over shared DBs; hammer
# routes-batch from concurrent clients and exercise shutdown draining
# under the race detector.
race-serve:
	go test -race -run 'Concurrent|Shutdown' ./internal/serve

# The binary v2 protocol surface under the race detector: the codec and
# negotiation tests, the JSON/binary differential suite, streaming
# sweeps, the striped-routing-state equivalence test, and the binary
# chaos swarm. This is the gate pinning that sharded adaptive choice
# stays race-free and both codecs answer identically.
race-serve-v2:
	go test -race -count=1 -run 'Binary|Differential|Sweep|Stripe' ./internal/serve ./internal/serve/chaos

# The chaos swarm — rogue clients (slow loris, mid-frame disconnects,
# garbage floods, deadline overruns, injected panics) and retrying
# well-behaved clients against one limited daemon — under the race
# detector: the daemon must stay live and its health counters must
# reconcile with the injected fault schedule.
race-chaos:
	go test -race -count=1 -run Chaos ./internal/serve/chaos

# The event-driven advance jumps the clock over idle spans while the
# fault schedule mutates link state; run the low-load event-driven fault
# test under the race detector so clock jumps and fault events stay
# correctly ordered.
race-flit-events:
	go test -race -count=1 -run 'EventDrivenFault|EventCycle|StepContract' ./internal/flitsim

# Golden-equivalence smoke: both modes must reproduce their committed
# goldens field by field; event-driven vs cycle-stepped at the three
# golden loads (0.05, 0.30, 0.90) must agree on saturation verdicts and
# delivered throughput, and the exact-equivalence run (rate-1 SP, where
# both modes consume zero injection randomness) must be bit-identical.
flit-event-smoke:
	go test -count=1 -run 'EventCycleEquivalence|ResultGolden' ./internal/flitsim

# Every Benchmark* under internal/ once (BenchmarkChoose, BenchmarkFlit,
# BenchmarkSelectors, BenchmarkReplay, ...), a few seconds in all: a gate
# that they still compile and run, not a measurement. The root package's
# per-artifact benchmarks take minutes and stay out.
bench-smoke:
	go test -count=1 -run '^$$' -bench . -benchtime 1x ./internal/...

# End-to-end daemon smoke: in-process server on a real Unix socket,
# every protocol op through the Go client, one raw error frame, clean
# drain on Stop (exits non-zero on any mismatch).
serve-smoke:
	go run ./internal/serve/smoke

# The same chaos swarm without the race detector: the quick liveness
# gate to run after touching the server's limits or shedding paths.
chaos-smoke:
	go test -count=1 -run Chaos -v ./internal/serve/chaos

# internal/bench is its own module (go.mod with `replace repro => ../..`),
# so `./...` above never compiles it: vet and test it here, so a root API
# change that breaks jfbench fails the gate instead of the benchmark run.
bench-check:
	cd internal/bench && go vet ./... && go test ./...

# Relative links in README.md and docs/*.md must point at real files.
docs-check:
	go run ./internal/docscheck

# Short fuzz smoke of every Fuzz* function in the root module, 10s each on
# top of its seeds (f.Add calls plus any committed testdata/fuzz corpus):
# the path deserializers, the jfserve wire decoders and the -faults
# schedule parser. `go test -list` finds the fuzzers, so a new one joins
# the gate without an edit here. Longer sessions: raise -fuzztime.
fuzz:
	@set -e; list=$$(go test -list '^Fuzz' ./...); \
	printf '%s\n' "$$list" | \
	awk '/^Fuzz/ { fns = fns " " $$1 } /^ok/ { if (fns != "") print $$2 fns; fns = "" }' | \
	while read -r pkg fns; do \
		for fn in $$fns; do \
			echo "go test -fuzz=^$$fn\$$ $$pkg"; \
			go test -fuzz="^$$fn\$$" -fuzztime=10s -run '^$$' "$$pkg" || exit 1; \
		done; \
	done

build:
	go build ./...

test:
	go test ./...

# jfbench over every workload (five repetitions from seed 1, host block
# and per-metric series in jfbench-results.json), then the package
# microbenchmarks.
bench:
	bash internal/bench/run.sh -seed 1 -reps 5 -out jfbench-results.json
	go test -bench=. -benchmem ./...

# Verdict per workload and end-to-end metric between two jfbench results
# files made with the same -seed and -reps (by default the parent's
# results renamed to jfbench-results-base.json, and this commit's);
# exits 1 when any is worse.
BASE ?= jfbench-results-base.json
NEW ?= jfbench-results.json
bench-diff:
	bash internal/bench/run.sh -compare $(BASE) $(NEW)
