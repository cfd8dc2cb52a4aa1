#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it from there. Everything the toolchain writes (build
# cache included) stays inside the checkout. Arguments go to the
# benchmark unchanged; see main.go.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"

# The module is stdlib-only and replaces msweb with the checkout, so the
# build needs no network, no module cache and no newer toolchain.
export GOCACHE="${GOCACHE:-$build/gocache}"
export GOPATH="$build/gopath"
export GOFLAGS="-buildvcs=false -mod=mod"
export GOTOOLCHAIN=local
export GOPROXY=off

(cd "$here" && go build -o "$build/msweb-benchmark" .)

export MSWEB_BENCH_DIR="$here"
MSWEB_BENCH_COMMIT="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || true)"
export MSWEB_BENCH_COMMIT
cd "$root"
exec "$build/msweb-benchmark" "$@"
