#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from the
# repository root; every file it writes stays under .bench_build/:
#
#   bash perfbench/run.sh --workload chip-fixture --seed 1 --seconds 30 --trace 0
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build"
# Keep the toolchain's own files inside the checkout too, and let no user
# or workspace setting change the build.
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOTOOLCHAIN=local GOENV=off GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
