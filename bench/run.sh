#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the repository
# root and runs it from there. The go tool's caches, its module path and
# its configuration directory (where it keeps telemetry counters) are
# kept inside .bench_build/ too, so a run writes only inside the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOFLAGS= GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$build/poise-bench" .)
cd "$root"
exec "$build/poise-bench" "$@"
