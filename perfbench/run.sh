#!/usr/bin/env bash
# Builds cpserver and the benchmark program from the checkout in the
# current directory, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload hot-query --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: binaries, the Go build cache, temp stores and traces.
set -euo pipefail

root=$(pwd)
if [[ ! -f go.mod || ! -d cmd/cpserver || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/cpserver or perfbench/go.mod missing)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=

go build -o "$build/bin/cpserver" ./cmd/cpserver
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" -root "$root" -server "$build/bin/cpserver" "$@"
