#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build
# writes (Go build cache included) stays under .bench_build in the
# checkout; the driver's arguments pass through untouched:
#
#   bash benchmark/run.sh --workload live_local --seed 1 --seconds 10 --trace 0
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off

# A warm rebuild is a staleness check of a few hundred milliseconds; the
# first build in a checkout compiles the standard library too. Builds of
# concurrent invocations must not clobber the binary another is running.
bin="$build/qosbench.$$"
go build -C "$root/benchmark" -o "$bin" . >&2
trap 'rm -f "$bin"' EXIT

cd "$root"
"$bin" "$@"
