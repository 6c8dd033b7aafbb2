#!/usr/bin/env bash
# The benchmark driver's entry point: build the benchmark from source and run
# it, keeping everything either step writes inside the checkout. Arguments are
# passed through, e.g.
#
#   bash benchmark/run.sh --workload sat32 --seed 1 --seconds 8 --trace 0
#
# The Go build cache, the binary, the stores and the span files all live under
# .bench_build/ at the root of the checkout (listed in .gitignore), so the
# first run in a fresh checkout compiles the standard library once.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=readonly

# benchmark/ is a module of its own (go.mod replaces nocmem with ../).
cd "$here"
go build -o "$build/nocbench" .
exec "$build/nocbench" -tmp "$build/tmp" "$@"
