#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository
# root, passing every argument through:
#
#	bash perfbench/run.sh --workload query-tcp --seed 1 --seconds 10 --trace 0
#
# The build cache, the binary and the benchmark's temporary files all live in
# .bench_build/ at the repository root, so a run writes nothing outside the
# checkout. The build fails, and the script exits non-zero, when the module
# it benchmarks (the parent directory) is missing.
set -eu
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	TMPDIR="$build/tmp" HOME="$build/home" XDG_CONFIG_HOME="$build/home" \
	XDG_CACHE_HOME="$build/home" GOENV=off GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
