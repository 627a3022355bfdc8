#!/bin/bash
# Regenerate every paper table and figure (DESIGN.md Section 4).
#
#   ./run_benches.sh            all paper benches + micro
#   ./run_benches.sh wallclock  host wall-clock bench -> BENCH_wallclock.json
#   ./run_benches.sh report     all paper benches with --json, merged
#                               into BENCH_report.json (+ reports/*.json)
#   ./run_benches.sh fig13      full-scale fleet chaos sweep
#                               -> reports/bench_fig13_fleet.json
#   ./run_benches.sh fig14      full-scale sketch skew x budget sweep
#                               -> reports/bench_fig14_sketch.json
set -u
cd "$(dirname "$0")"

PAPER_BENCHES="bench_table2_sizes bench_table3_waits \
    bench_fig2_cores_cache bench_table4_sufficient_llc \
    bench_fig3_bandwidth bench_fig4_cdf \
    bench_fig5_readbw bench_fig6_maxdop \
    bench_fig7_plans bench_fig8_memgrant \
    bench_fig9_faults bench_pitfalls bench_ablation"

# The beyond-paper benches run with --small: bench_fig10_autopilot
# runs three full HTAP arms plus an oracle sweep, and
# bench_fig11_attribution runs two (static + probing), so --small keeps
# the script's runtime sane. Drop the flag for the paper-scale numbers.
SMALL_BENCHES="bench_fig10_autopilot bench_fig11_attribution \
    bench_fig12_resilience bench_fig13_fleet bench_fig14_sketch"

if [ "${1:-}" = "fig13" ]; then
    # Full-scale fleet sweep (node count x crash intensity); the
    # verdict gates on zero consistency violations and 100% in-doubt
    # resolution, so a non-zero exit here is a correctness bug.
    mkdir -p reports
    build/bench/bench_fig13_fleet --json reports/bench_fig13_fleet.json \
        || echo "BENCH FAILED: bench_fig13_fleet" >&2
    exit 0
fi

if [ "${1:-}" = "fig14" ]; then
    # Full-scale sketch backbone sweep; the verdict gates on the
    # sketch-vs-oracle plan flips, the analytic error bounds, and the
    # monotone resize curve, so a non-zero exit here is a bug.
    mkdir -p reports
    build/bench/bench_fig14_sketch --json reports/bench_fig14_sketch.json \
        || echo "BENCH FAILED: bench_fig14_sketch" >&2
    exit 0
fi

if [ "${1:-}" = "wallclock" ]; then
    build/bench/bench_wallclock > BENCH_wallclock.json \
        || echo "BENCH FAILED: bench_wallclock" >&2
    cat BENCH_wallclock.json
    exit 0
fi

if [ "${1:-}" = "report" ]; then
    # Run every paper bench with --json and collect the per-bench
    # reports into one BENCH_report.json (next to BENCH_wallclock.json
    # from the wallclock mode).
    mkdir -p reports
    collected=""
    for b in $PAPER_BENCHES; do
        echo ""
        echo "##### $b (--json) #####"
        if "build/bench/$b" --json "reports/$b.json"; then
            collected="$collected reports/$b.json"
        else
            echo "BENCH FAILED: $b" >&2
        fi
    done
    for b in $SMALL_BENCHES; do
        echo ""
        echo "##### $b (--small --json) #####"
        if "build/bench/$b" --small --json "reports/$b.json"; then
            collected="$collected reports/$b.json"
        else
            echo "BENCH FAILED: $b" >&2
        fi
    done
    # shellcheck disable=SC2086
    build/tools/report_tool merge BENCH_report.json $collected
    exit 0
fi

for b in $PAPER_BENCHES bench_micro; do
    echo ""
    echo "##### build/bench/$b #####"
    "build/bench/$b" || echo "BENCH FAILED: $b"
done
for b in $SMALL_BENCHES; do
    echo ""
    echo "##### build/bench/$b --small #####"
    "build/bench/$b" --small || echo "BENCH FAILED: $b"
done
