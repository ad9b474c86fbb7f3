#!/usr/bin/env bash
# run.sh — build the benchmark from the surrounding checkout and run
# one workload:
#
#   bash bench/run.sh --workload read-zipf --seed 1 --seconds 16 --trace 0
#
# Everything it writes stays inside the checkout: the Go build and
# module caches, the binary and the mirrors' temporary state go under
# .bench_build/ at the checkout root, traces under bench/out/. Without
# the repository's sources next to bench/ the build fails and so does
# the script.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
    XDG_CONFIG_HOME="$build/config" TMPDIR="$build/tmp" \
    GOTOOLCHAIN=local GOWORK=off GOFLAGS=

cd "$here"
go build -o "$build/freshen-bench" .
exec "$build/freshen-bench" "$@"
