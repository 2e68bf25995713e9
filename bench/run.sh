#!/usr/bin/env bash
# Builds cmd/vivobench from source and runs it from the repository root
# with the given flags, e.g.
#
#   bash bench/run.sh --workload fault-tcp --seed 1 --seconds 30 --trace 0
#   bash bench/run.sh -layers
#
# Everything the build and the runs write (Go build cache, module cache,
# the binary, CPU profiles) stays under .bench_build/ at the repository
# root. Without the rest of the repository next to bench/ the build
# fails, and so does this script.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out=$root/.bench_build
mkdir -p "$out"
# XDG_CONFIG_HOME also holds the go command's telemetry counters.
export GOCACHE=$out/gocache GOMODCACHE=$out/gomod GOPATH=$out/gopath \
	XDG_CONFIG_HOME=$out/config XDG_CACHE_HOME=$out/cache \
	GOTOOLCHAIN=local GOFLAGS=

go -C "$root/bench" build -o "$out/vivobench" ./cmd/vivobench
cd "$root"
exec "$out/vivobench" -work "$out" "$@"
