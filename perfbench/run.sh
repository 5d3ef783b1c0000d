#!/usr/bin/env bash
# Builds the benchmark harness from the checkout's sources and runs it.
# Run from the repository root; the arguments go to the harness:
#
#   bash perfbench/run.sh --workload farm-n5 --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build: the
# Go build cache, the harness binary and the farms' temporary stores.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" HOME="$build/home"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
