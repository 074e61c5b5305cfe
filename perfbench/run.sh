#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and executes it.
# Run from the repository root:
#   bash perfbench/run.sh --workload exhaustive --seed 1 --seconds 25 --trace 0
# Every build output (binary, Go build cache) stays under .bench_build.
set -euo pipefail
root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOSUMDB=off GOENV=off
go build -C "$root/perfbench" -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
