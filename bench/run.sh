#!/usr/bin/env bash
# Builds the harness from source inside the checkout and runs it.
#
#   bash bench/run.sh --workload serve_cold --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh                      # all four workloads, untraced
#
# Everything the build and the run write stays inside the checkout:
# the Go build cache, GOPATH, the toolchain's own configuration and the
# binary under .bench_build/, results and temporary lakes under
# bench/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
TABLEHOUND_BENCH_COMMIT="${TABLEHOUND_BENCH_COMMIT:-$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)}"
export TABLEHOUND_BENCH_COMMIT
go build -C "$here" -o "$build/tablehound-bench" .
cd "$root"
exec "$build/tablehound-bench" "$@"
