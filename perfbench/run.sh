#!/usr/bin/env bash
# Builds the benchmark driver from the sources of the checkout it sits in,
# then runs it with the given arguments:
#
#   bash perfbench/run.sh --workload join --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, temporary build
# directories, the binary, traced-run output) stays under .bench_build at
# the checkout root. The build never touches the network: a checkout
# without the simulator's sources fails here, before any result is printed.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOFLAGS="-buildvcs=false"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off

go -C "$here" build -o "$build/perfbench" .
cd "$root"
exec "$build/perfbench" "$@"
