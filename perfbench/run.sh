#!/usr/bin/env bash
# Builds the benchmark and the congserve server from this checkout, then
# runs one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload design_predict --seed 1 --seconds 10 --trace 0
#
# Every build output, the Go build cache and the run scratch live under
# .bench_build/ in the checkout; the trained fixture is cached under
# perfbench/.fixture/. The last line of standard output is the JSON result.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= CGO_ENABLED=0
go build -trimpath -o "$out/bin/congserve" ./cmd/congserve >&2
(cd perfbench && go build -trimpath -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -root "$root" -congserve "$out/bin/congserve" "$@"
