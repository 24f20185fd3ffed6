#!/usr/bin/env bash
# The benchmark's driver entry: build the benchmark inside the checkout,
# then run it. Run from the root of a checkout:
#
#   bash benchmark/run.sh --workload local_hot --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (Go's build cache, its temporary files, the
# binary) goes under .bench_build/ in the checkout, nothing outside it.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "benchmark/run.sh: run from the root of a checkout of the repository (no go.mod or internal/ here)" >&2
	exit 1
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -o "$build/tabs-benchmark" ./benchmark
exec "$build/tabs-benchmark" "$@"
