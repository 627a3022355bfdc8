#!/usr/bin/env bash
# Build the host-time benchmark (incrementally, Release) and run one
# workload. Arguments go to bench_e2e, e.g.
#   bash bench/e2e/bench.sh --workload oltp --seed 1 --seconds 20 --trace 0
# Build output goes to stderr, so the last line of stdout is the
# benchmark's JSON result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$here/build"

{
    cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release
    cmake --build "$build" --target bench_e2e -j4
} >&2

exec "$build/bench_e2e" --golden "$here/golden.json" "$@"
