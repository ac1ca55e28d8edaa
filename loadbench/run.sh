#!/usr/bin/env bash
# Builds loadbench from this checkout's sources and runs it. Run it from
# the repository root:
#
#   bash loadbench/run.sh --workload ingest|forecast|plan --seed N --seconds N --trace 0|1
#
# The Go build cache, the binary and the run's scratch files all live
# under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/loadbench"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off
(cd "$root/loadbench" && go build -o "$out/loadbench" .)
exec "$out/loadbench" "$@"
