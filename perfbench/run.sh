#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root, for example:
#
#   bash perfbench/run.sh --r0-ms 12 --workload live-grid --seed 1 --seconds 30 --trace 0
#
# Everything it writes (the Go build cache, the binary, scratch stores,
# span files) goes under .bench_build/ in the working tree. The build
# fails, and the script exits non-zero without printing a result, when
# the repository's sources are not beside perfbench/.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
    GOPATH="$out/gopath" GOFLAGS= GOWORK=off GOTOOLCHAIN=local

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" -root "$root" "$@"
