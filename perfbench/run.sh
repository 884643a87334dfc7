#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload serve --seed 1 --seconds 15 --trace 0
#
# Run from the repository root. Everything the build and the run write goes
# under $CARGO_TARGET_DIR (default .bench_build): the Go build cache, the
# binary, span files and temporary data directories. The build is offline:
# the benchmark module needs nothing beyond the standard library and the
# repository's own module.
set -euo pipefail

out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out/perfbench/tmp"

export GOCACHE="$out/perfbench/gocache"
export GOTMPDIR="$out/perfbench/tmp"
export GOPATH="$out/perfbench/gopath"
export GOMODCACHE="$out/perfbench/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS=

go -C perfbench build -o "$out/perfbench/perfbench" . >&2
exec "$out/perfbench/perfbench" -out "$out/perfbench" "$@"
