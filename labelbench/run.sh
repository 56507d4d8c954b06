#!/usr/bin/env bash
# Builds the labeling benchmark from this checkout's sources and runs it
# from the checkout root, forwarding every argument:
#
#   bash labelbench/run.sh --workload pool-wire --seed 1 --seconds 20 --trace 0
#   bash labelbench/run.sh            # all four workloads, end-to-end metrics
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binary, journals, follower mirrors and
# span dumps. Build output goes to standard error, so the last line of
# standard output is the benchmark's result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOENV=off GOWORK=off \
	GOTOOLCHAIN=local GOFLAGS=-mod=readonly XDG_CONFIG_HOME="$build/config"
(cd "$root/labelbench" && go build -o "$build/labelbench" .) >&2
cd "$root"
exec "$build/labelbench" --workdir "$build/work" "$@"
