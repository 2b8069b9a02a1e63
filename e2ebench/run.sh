#!/usr/bin/env bash
# Builds the load generator and selestd from this checkout's sources,
# then runs one workload. Usage, from the repository root:
#   bash e2ebench/run.sh --workload point-c1 --seed 1 --seconds 10 --trace 0
# Every build output and run artifact stays under .bench_build/.
set -euo pipefail
root=$PWD
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off
go -C "$root/e2ebench" build -o "$out/e2ebench" .
go build -o "$out/selestd" ./cmd/selestd
exec "$out/e2ebench" -root "$root" -selestd "$out/selestd" "$@"
