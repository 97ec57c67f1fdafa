#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload chain --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the repository. Everything the build and the run
# write stays under .bench_build/ in that directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -o "$out/perfbench" ./perfbench
exec "$out/perfbench" "$@"
