#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from
# the repository root:
#
#   bash erbench/run.sh --workload cold_batch --seed 1 --seconds 40 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout (Go build cache, temporary files, telemetry counters, binary,
# data directories, span files).
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/config"
# The go command's cache, temporary files, module path and telemetry
# counters (under the user config directory) all go to the checkout.
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOFLAGS= GOWORK=off GOTOOLCHAIN=local
(cd "$root/erbench" && go build -o "$build/erbench" .)
args=()
while [ $# -gt 0 ]; do
	case "$1" in
	--workload | --seed | --seconds | --trace) args+=("-${1#--}" "$2"); shift 2 ;;
	*) args+=("$1"); shift ;;
	esac
done
exec "$build/erbench" -work "$build/erbench-work" "${args[@]}"
