#!/usr/bin/env bash
# The benchmark's command (see BENCHMARK.json): build the harness — and,
# through it, xsiserve — from this checkout's source, keeping the build
# cache, temp files and every output inside the checkout, then run it.
# Arguments pass through: --workload NAME --seed N --seconds S --trace 0|1.
#
#   bash bench/run.sh --workload write_small --seed 1 --seconds 8 --trace 0
#
# `go run ./bench` is the same program with the user's own build cache.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/bin/bench" ./bench
exec "$build/bin/bench" -dir "$build" "$@"
