#!/usr/bin/env bash
# Builds the servebench binary from source and runs it with the given
# arguments. Run from the root of the repository:
#
#   bash servebench/run.sh --workload cold-solve --seed 1 --seconds 10 --trace 0
#
# The Go build cache, module cache and binary live in .bench_build/ under
# the current directory, so nothing is written outside the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOTMPDIR="$build/tmp"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOENV=off
export GOTELEMETRY=off

(cd "$root/servebench" && go build -o "$build/servebench" .)
exec "$build/servebench" "$@"
