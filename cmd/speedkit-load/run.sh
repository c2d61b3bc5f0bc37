#!/usr/bin/env bash
# The driver's entry point: builds speedkit-load from source inside the
# checkout it is run from, then runs it with the arguments it was given
# (--workload NAME --seed N --seconds S --trace 0|1). Everything the
# build and the run write stays under .bench_build/, which .gitignore
# names; the first run in a checkout compiles the standard library too.
set -euo pipefail

build="$PWD/.bench_build/speedkit-load"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -o "$build/speedkit-load" ./cmd/speedkit-load
exec "$build/speedkit-load" "$@"
