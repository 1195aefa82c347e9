#!/usr/bin/env bash
# Builds topkd and the benchmark from this checkout, then runs the
# benchmark with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload cold --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh steady
#
# Everything the build and the runs write stays under .bench_build in the
# checkout: the Go build cache, temporary files, binaries and data
# directories.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/topkd" ./cmd/topkd
go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
