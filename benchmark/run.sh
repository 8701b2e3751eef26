#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a checkout:
#
#   bash benchmark/run.sh --workload sg-acyclic --seed 1 --seconds 18 --trace 0
#
# Everything it writes — the go build cache, the binary, data directories,
# crash images, traces — lands in .bench_build inside the checkout.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -f BENCHMARK.json ] || [ ! -d benchmark ]; then
	echo "benchmark/run.sh: run from the root of a lincount checkout (go.mod, BENCHMARK.json and benchmark/ must be here)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/home"
# The go tool keeps its cache, its env file and its counters under $HOME.
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOWORK=off

go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
