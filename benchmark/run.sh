#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it, passing
# every argument through. Run it from the repository root:
#
#   bash benchmark/run.sh --workload pt2pt-tcp --seed 1 --seconds 10 --trace 0
#
# Everything it writes (Go build cache, binary, shm segments, traces)
# stays under .bench_build/ in the current directory.
set -euo pipefail

build="$(pwd)/.bench_build"
here="$(cd "$(dirname "$0")" && pwd)"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$here" && go build -o "$build/benchmark" .)
exec "$build/benchmark" --out "$build" "$@"
