#!/usr/bin/env bash
# Builds the layered benchmark from this checkout's sources and runs it
# with the given arguments, from the root of the checkout:
#
#   bash layerbench/run.sh --workload simulate --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run leave behind goes under the build
# directory ($CARGO_TARGET_DIR when set, else .bench_build): the Go build
# cache, the binary, and the span files of traced runs.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build"

# Build offline against the local module only, keeping the build cache,
# module path and the go command's own config and telemetry files inside
# the checkout.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOPROXY=off GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOWORK=off
go -C "$root/layerbench" build -o "$build/layerbench" .
exec "$build/layerbench" --spans "$build/spans" "$@"
