#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build and the
# run write (Go build cache, binary, persist directories, result and trace
# files) lands in .bench_build/ at the root of the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/dialite-bench" .)
cd "$root"
exec "$build/dialite-bench" "$@"
