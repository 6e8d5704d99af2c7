#!/usr/bin/env bash
# Launcher named by BENCHMARK.json. Builds the driver from source into
# .bench_build/ of the current checkout (the Go build cache and temp dir
# live there too, so nothing is written outside the checkout), then runs
# it with the caller's arguments. Run from the checkout root:
#   bash bench/run.sh --workload quorum_mem_mixed --seed 1 --seconds 20 --trace 0
set -euo pipefail
root=$PWD
build=$root/.bench_build
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE=$build/gocache GOTMPDIR=$build/gotmp
go -C "$root/bench" build -o "$build/ecbenchdrv" .
exec "$build/ecbenchdrv" -out "$root/bench/out" "$@"
