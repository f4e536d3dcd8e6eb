#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed to the benchmark binary:
#
#	bash perfbench/run.sh --workload paper-summary --seed 1 --seconds 25 --trace 0
#
# The Go build cache, temporary files and the binary live under
# .bench_build/ so the benchmark writes nothing outside the checkout.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gomodcache" "$build/bin"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off

go -C perfbench build -o "$build/bin/perfbench" .
exec "$build/bin/perfbench" "$@"
