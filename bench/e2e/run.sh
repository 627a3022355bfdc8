#!/usr/bin/env bash
# Run every workload once per round, one process each, rotating the
# workload order each round so no workload always runs first. Reports
# land in <outdir> as <workload>.r<round>.json, or .traced.json and
# .spans.json when traced, so traced and untraced rounds can share a
# directory. Compare two such directories with compare.py.
#
#   bash bench/e2e/run.sh <outdir> [rounds=5] [--trace] [--seed N]
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
usage="usage: $0 <outdir> [rounds=5] [--trace] [--seed N]"
[[ $# -ge 1 ]] || { echo "$usage" >&2; exit 2; }
out="$1"
shift
rounds=5
trace=0
seed=1
while [[ $# -gt 0 ]]; do
    case "$1" in
    --trace) trace=1 ;;
    --seed) seed="$2"; shift ;;
    [0-9]*) rounds="$1" ;;
    *) echo "$usage" >&2; exit 2 ;;
    esac
    shift
done

mapfile -t workloads < <(python3 -c '
import json, sys
for w in json.load(open(sys.argv[1]))["workloads"]:
    print(w["name"])' "$here/../../BENCHMARK.json")
mkdir -p "$out"

n=${#workloads[@]}
for ((r = 1; r <= rounds; r++)); do
    for ((i = 0; i < n; i++)); do
        w="${workloads[$(((i + r - 1) % n))]}"
        base="$out/$w.r$r"
        args=(--workload "$w" --seed "$seed" --trace "$trace")
        if [[ $trace == 1 ]]; then
            base="$base.traced"
            args+=(--spans "$base.spans.json")
        fi
        # The first call builds; later calls find the build current.
        bash "$here/bench.sh" "${args[@]}" --json "$base.json" \
            >"$base.log" 2>"$base.err"
        echo "round $r $w: $(tail -n 1 "$base.log")"
    done
done
