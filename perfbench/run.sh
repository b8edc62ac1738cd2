#!/usr/bin/env bash
# Builds the benchmark binary from the checkout's sources and runs it with
# the given arguments, from the root of the checkout:
#
#   bash perfbench/run.sh --workload suite-fast --seed 1 --seconds 20 --trace 0
#
# Every build product (binary, Go build cache, temporary files) stays under
# .bench_build in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOENV=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
