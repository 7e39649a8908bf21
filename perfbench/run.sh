#!/usr/bin/env bash
# Builds the benchmark from source and runs it:
#
#   bash perfbench/run.sh --workload cold_start --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Everything the build and the run
# write (Go build cache, binary, temporary WAL directories, span dumps)
# stays under .bench_build/ in the current directory.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod not found)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/home" "$build/tmp" "$build/gocache" "$build/gopath"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
