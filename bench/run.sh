#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a
# checkout: bash bench/run.sh --workload secure_scan --seed 1 --seconds 20 --trace 0
# Everything the build leaves behind — binary, Go build cache, temporary
# files — goes under .bench_build in the checkout, nothing outside it.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/go-mod"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off
# The go command keeps its telemetry counters under the user's config
# directory; point that into the checkout as well.
export XDG_CONFIG_HOME="$build/config"
# -buildvcs=false: a checkout need not be a git repository.
go build -C "$here" -buildvcs=false -o "$build/sknn-bench" .

cd "$root"
exec "$build/sknn-bench" "$@"
