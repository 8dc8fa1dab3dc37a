#!/usr/bin/env bash
# Builds the benchmark harness from the sources of this checkout and runs
# it with the given arguments, for example:
#
#   bash vltbench/run.sh --workload grid --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# root of the checkout. The last line of standard output is the result.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$build/home" XDG_CACHE_HOME="$build/home" \
	GOTOOLCHAIN=local GOFLAGS= GOENV=off
(cd "$root/vltbench" && go build -o "$build/vltbench" .) >&2
cd "$root"
exec "$build/vltbench" -dir "$build/run" "$@"
