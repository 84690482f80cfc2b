#!/usr/bin/env bash
# Builds jfbench and the jfserve daemon it drives, then runs jfbench with
# the given arguments. Run it from the repository root, for example
#
#   bash internal/bench/run.sh --workload serve --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR, default .bench_build): the Go build cache, the
# binaries and the temporary files (span files, path caches).
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$build/tmp"
build=$(cd "$build" && pwd)

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off

# The build's own output goes to stderr: the last line on stdout must be
# jfbench's result.
(cd "$here" && go build -o "$build/jfbench/" ./cmd/jfbench repro/cmd/jfserve) >&2
exec "$build/jfbench/jfbench" "$@"
