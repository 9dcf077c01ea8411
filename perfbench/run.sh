#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments, e.g.
#   bash perfbench/run.sh --workload sim-ocean --seed 1 --seconds 10 --trace 0
# Run from the repository root. Everything the build and the run write
# stays under the build directory ($CARGO_TARGET_DIR, default
# .bench_build).
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp" "$out/config"

export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod
export XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOPROXY=off GOTELEMETRY=off
export TMPDIR=$out/tmp

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --outdir "$out" "$@"
