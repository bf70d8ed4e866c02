#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is started in,
# then runs it with the arguments given. Everything the Go toolchain writes
# (build cache, temporary files, the binary) stays under .bench_build in
# that checkout. Without the repository's sources there is nothing to
# build, and the script fails.
set -euo pipefail

root="$PWD"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal/bft" ]; then
	echo "benchmark/run.sh: run from the root of a checkout of the repository" >&2
	exit 1
fi
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
