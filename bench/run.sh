#!/usr/bin/env bash
# The builder's entry point: build the benchmark from source, then run it.
#
#   bash bench/run.sh --workload get-flash --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays inside the checkout: the Go
# build and module caches and the binary under .bench_build/, results and
# traces under bench/out/. Without the repository around it (only
# BENCHMARK.json and bench/) the build fails and this exits non-zero
# without printing a result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off
cd "$here"
go build -o "$build/bench" .
exec "$build/bench" "$@"
