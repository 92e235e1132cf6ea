#!/usr/bin/env bash
# Builds the doppio binary and the benchmark binary from this checkout,
# then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload cold --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and
# every scratch file stay under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
  /*) ;;
  *) out=$root/$out ;;
esac
mkdir -p "$out/bin" "$out/tmp" "$out/home"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export HOME=$out/home XDG_CONFIG_HOME=$out/home GOENV=off GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off

go build -o "$out/bin/doppio" ./cmd/doppio
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -doppio "$out/bin/doppio" -workdir "$out/run" -study perfbench/study.json "$@"
