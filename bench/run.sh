#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (inside the
# checkout, Go build cache included, so nothing outside it is written)
# and runs it from the checkout root with the arguments given.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOWORK=off
go build -C "$here" -o "$build/optbench" .
cd "$root"
exec "$build/optbench" "$@"
