#!/usr/bin/env bash
# Builds the benchmark from source and runs it; all arguments go to it.
# The command BENCHMARK.json names. The binary and the go build cache are
# kept under .bench_build in the checkout, so a run writes nothing outside
# it (and needs no $HOME for a cache).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
GOCACHE="$build/gocache" go build -C "$here" -o "$build/npqm-bench" .
exec "$build/npqm-bench" "$@"
