#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
#
# Run from the repository root:
#   bash perfbench/run.sh --workload dense-g1 --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh -benchmark BENCHMARK.json -seed 1 -runs 3 -o base.json
#   bash perfbench/run.sh -compare base.json head.json
#
# The Go build cache, temporary files and the binary all stay under
# .bench_build/ in the current directory, and the build never reaches for
# the network. The build fails, and no result is printed, when the
# repository's own sources are not next to this directory.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOWORK=off

(cd "$(dirname "$0")" && go build -buildvcs=false -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
