#!/bin/bash
# The benchmark's command (BENCHMARK.json): build bench/ from source and
# run it with the caller's flags. Everything the Go toolchain writes —
# build cache, temporary files, the binary — goes under .bench_build at
# the root of the checkout, so a run reads and writes nothing outside
# it. Needs the repo's own go.mod next to bench/: without the stack to
# measure the build fails and so does this script.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out=$root/.bench_build
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOTOOLCHAIN=local
go build -C "$root/bench" -o "$out/bench" .
exec "$out/bench" "$@"
