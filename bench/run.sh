#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (inside the checkout:
# binary, Go build cache and all) and runs it. Run from the repository root;
# arguments are passed through to the benchmark, see bench/README.md.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -f BENCHMARK.json ]; then
	echo "bench/run.sh: run from the repository root (go.mod and BENCHMARK.json not found)" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build"
GOCACHE="$build/gocache" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local \
	go build -o "$build/gfbench" ./bench
exec "$build/gfbench" "$@"
