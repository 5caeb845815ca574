#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
#
# Every build and run artifact stays under .bench_build/ in the checkout:
# the Go build cache, the temporary directory and the binary. The build
# needs the repository module one directory up; without it, it fails and
# the script exits non-zero before printing any result.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -C perfbench -o "$build/bin/perfbench" .
exec "$build/bin/perfbench" "$@"
