#!/bin/sh
# Builds the benchmark from the sources of the checkout it is started in
# and runs it. Run it from the root of the checkout:
#
#   sh perfbench/run.sh --workload corpus --seed 1 --seconds 15 --trace 0
#
# The build cache, the binary and the serve workload's stores all live
# under .bench_build/ in the checkout; so does the go command's own
# configuration directory, where it keeps its telemetry counters.
set -eu
build="$(pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOFLAGS= GOTOOLCHAIN=local
(cd "$(dirname "$0")" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
