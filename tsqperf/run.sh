#!/usr/bin/env bash
# Builds the benchmark from the checkout this script sits in and runs it
# from the checkout's root, passing every argument through:
#
#   bash tsqperf/run.sh --workload cached-reads --seed 1 --seconds 20 --trace 0
#
# Build products, the Go build cache and the runs' scratch files stay in
# .bench_build at the checkout's root.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOWORK=off GOTOOLCHAIN=local GOFLAGS=
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp"
(cd "$root/tsqperf" && go build -o "$out/bin/tsqperf" .)
cd "$root"
exec "$out/bin/tsqperf" "$@"
