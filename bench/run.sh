#!/usr/bin/env bash
# Builds the benchmark and the dasserve binary from this checkout's
# sources, then runs the benchmark with the given arguments:
#
#   bash bench/run.sh --workload fig7a-sweep --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh                      # all four workloads, default seed
#   bash bench/run.sh -compare A.jsonl B.jsonl
#
# Run it from the repository root. Binaries, the Go build cache and every
# file a run writes live under .bench_build/, so nothing is written
# outside the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp"
export GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local

(
	cd "$root/bench"
	go build -o "$out/bench" .
	go build -o "$out/dasserve" repro/cmd/dasserve
)
exec "$out/bench" "$@"
