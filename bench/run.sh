#!/usr/bin/env bash
# The one command: builds the harness from source into .bench_build/ (Go's
# build cache, module path and telemetry counters go there too, so nothing
# outside the checkout is written) and runs it from the repository root with
# the arguments given.
#
#   bash bench/run.sh                       all five workloads, untraced then traced
#   bash bench/run.sh --workload kv-serve --seed 7 --seconds 15 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
