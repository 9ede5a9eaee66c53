#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources, then runs one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload buy-serial --seed 1 --seconds 40 --trace 0
#
# Everything the build and the run write stays under .bench_build (or
# $CARGO_TARGET_DIR when set) in the current directory.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"

export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config
export GOFLAGS=-buildvcs=false GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off

go -C "$here" build -o "$out/bin/perfbench" . >&2
exec "$out/bin/perfbench" -workdir "$out/work" "$@"
