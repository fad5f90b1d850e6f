#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root, for example:
#
#   bash hostbench/run.sh --workload fig2-128 --seed 42 --seconds 20 --trace 0
#
# The binary and every file the Go toolchain writes (build cache, temporary
# files, settings) stay in the build directory: $CARGO_TARGET_DIR when set,
# else .bench_build, relative to the repository root.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp" "$build/config" "$build/cache"

export GOCACHE=$build/cache/go-build
export GOPATH=$build/gopath
export GOTMPDIR=$build/tmp
export XDG_CONFIG_HOME=$build/config
export XDG_CACHE_HOME=$build/cache
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0

go -C hostbench build -o "$build/hostbench" .
exec "$build/hostbench" "$@"
