#!/usr/bin/env bash
# Builds cisim and the benchmark from source, then runs one benchmark
# workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload cold-sweep --seed 1 --seconds 15 --trace 0
#
# Everything it builds or writes stays under .bench_build in the current
# directory: binaries, the Go build cache, scratch stores and the stamped
# result records (.bench_build/results).
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

# Build output goes to stderr so the last line of stdout stays the result.
go build -o "$out/cisim" ./cmd/cisim >&2
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2

exec "$out/perfbench" -cisim "$out/cisim" -work "$out" "$@"
