#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the given
# arguments. Everything the build and the run write — Go build cache,
# temporary files, toolchain telemetry counters, the binary, disk tiers —
# stays under .bench_build at the root of the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off \
	go build -C "$root/benchmark" -o "$build/benchmark" . >&2
exec "$build/benchmark" "$@"
