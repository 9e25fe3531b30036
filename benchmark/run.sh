#!/bin/sh
# Contract entry point: build the benchmark inside the checkout, then run
# it. Everything the build writes (binary, Go build cache, temporary files)
# goes under .bench_build/, so a run touches nothing outside the checkout.
# Run from the repository root:
#   sh benchmark/run.sh --workload gather_tcp --seed 1 --seconds 20 --trace 0
set -eu
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOTOOLCHAIN=local
(cd "$root/benchmark" && go build -o "$build/servingbench" .)
exec "$build/servingbench" "$@"
