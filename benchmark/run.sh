#!/usr/bin/env bash
# Builds the benchmark from source and runs it; BENCHMARK.json names this
# script as the command. Everything written lands in .bench_build/ at the
# root of the checkout: the Go build cache, the binary, results and traces.
#
#   bash benchmark/run.sh --workload d1_mixed_small --seed 1 --seconds 10 --trace 0
#
# In a directory that holds only BENCHMARK.json and benchmark/ the build
# fails (the engine is not there) and the script exits non-zero.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"

# No downloads, no writes outside the checkout.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPROXY=off GOTOOLCHAIN=local

(cd "$here" && go build -o "$build/flatstore-benchmark" .) >&2
cd "$root"
exec "$build/flatstore-benchmark" "$@"
