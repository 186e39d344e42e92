#!/bin/bash
# The benchmark driver's entry: build the benchmark from source and run it
# with the arguments given. Called from the root of a checkout as
#
#	bash benchmark/run.sh --workload vm_live --seed 3 --seconds 25 --trace 0
#
# Everything the Go toolchain writes (build cache, scratch space, the
# binary) goes under .bench_build/ in the checkout, so a run touches nothing
# outside it; only the first build in a checkout compiles the standard
# library too. The build's own output goes to standard error: the last
# line of standard output is the benchmark's result.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=$(dirname "$here")/.bench_build
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off

(cd "$here" && go build -o "$build/benchmark" .) >&2
exec "$build/benchmark" "$@"
