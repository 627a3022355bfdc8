#!/bin/bash
# Regenerate every paper table and figure (DESIGN.md Section 4).
#
#   ./run_benches.sh              every bench in the table below, plus
#                                 bench_micro
#   ./run_benches.sh small        the benches with a --small scale, each
#                                 as --small --json reports/<bench>.json,
#                                 checked against its schema golden and
#                                 its results digest (CI)
#   ./run_benches.sh report       every bench with --json, merged into
#                                 BENCH_report.json (+ reports/*.json)
#   ./run_benches.sh full <bench> one bench at full scale
#                                 -> reports/<bench>.json
#   ./run_benches.sh check <bench> <report.json>
#                                 check a report (path from the repo
#                                 root) against the bench's schema
#                                 golden and digest (CI, table3)
#   ./run_benches.sh wallclock    host wall-clock bench
#                                 -> BENCH_wallclock.json
#
# Benches with a --small scale run at it in every mode but `full`.
# A bench fails when it exits non-zero (a failed verdict, or a report
# it cannot write), its report misses its schema golden, or (in `small`
# mode) the digest of its report's results differs from the table's. Every mode
# runs all of its benches, names each failure as "BENCH FAILED: <bench>"
# and exits 1 if there was one; a usage error exits 2.
set -u
cd "$(dirname "$0")"

# One row per bench: name, whether it has a --small scale, the schema
# golden its --json report is checked against (- for none), and the
# `report_tool digest` of its report's results at the scale CI runs it,
# --small where the bench has one (- for none).
# The results are simulated values only, so a digest moves exactly when
# simulated output changes; a change that means to move it updates the
# digest here in the same commit.
BENCHES="\
bench_table2_sizes          no  -                                       -
bench_table3_waits          no  tests/golden/report_schema.json         216fbb8f69572e46
bench_fig2_cores_cache      no  -                                       -
bench_table4_sufficient_llc no  -                                       -
bench_fig3_bandwidth        no  -                                       -
bench_fig4_cdf              no  -                                       -
bench_fig5_readbw           no  -                                       -
bench_fig6_maxdop           no  -                                       -
bench_fig7_plans            no  -                                       -
bench_fig8_memgrant         no  -                                       -
bench_fig9_faults           yes tests/golden/fault_matrix_schema.json   7997e5ec42dce0d9
bench_pitfalls              no  -                                       -
bench_ablation              no  -                                       -
bench_fig10_autopilot       yes tests/golden/autopilot_schema.json      66ca3475c39b541f
bench_fig11_attribution     yes -                                       d55c4a5fed21d834
bench_fig12_resilience      yes -                                       1df4806add56fc99
bench_fig13_fleet           yes tests/golden/fleet_schema.json          c85c4fc98f7239c8
bench_fig14_sketch          yes tests/golden/fig14_sketch_schema.json   30128feea93b05ff"

failed=""
reports=""

fail() {
    echo "BENCH FAILED: $1" >&2
    failed="$failed $1"
}

# run <bench> <small> <schema> [<digest>]: run one bench, at --small
# when <small> is yes. With a <digest> argument (- for none), write
# reports/<bench>.json and check it against <schema> and <digest>.
run() {
    local b=$1 small=$2 schema=$3 digest=${4:-}
    local args=()
    [ "$small" = yes ] && args+=(--small)
    [ -n "$digest" ] && args+=(--json "reports/$b.json")
    echo ""
    echo "##### build/bench/$b ${args[*]} #####"
    if ! "build/bench/$b" "${args[@]}"; then
        fail "$b"
        return
    fi
    [ -n "$digest" ] || return
    reports="$reports reports/$b.json"
    check "$b" "reports/$b.json" "$schema" "$digest"
}

# check <bench> <report> <schema> <digest>: check a report against its
# schema golden and results digest (- skips either).
check() {
    local b=$1 report=$2 schema=$3 digest=$4
    if [ "$schema" != - ]; then
        build/tools/report_tool check "$report" "$schema" || fail "$b"
    fi
    if [ "$digest" != - ]; then
        local got
        got=$(build/tools/report_tool digest "$report")
        if [ "$got" = "$digest" ]; then
            echo "$report results digest $got matches"
        else
            echo "$report results digest $got, expected $digest" >&2
            fail "$b"
        fi
    fi
}

finish() {
    if [ -n "$failed" ]; then
        echo "" >&2
        echo "failed:$failed" >&2
        exit 1
    fi
    exit 0
}

mode=${1:-all}
case "$mode" in
  all)
    while read -r b small schema _; do
        run "$b" "$small" "$schema"
    done <<< "$BENCHES"
    run bench_micro no -
    ;;
  small)
    mkdir -p reports
    while read -r b small schema digest; do
        [ "$small" = yes ] && run "$b" yes "$schema" "$digest"
    done <<< "$BENCHES"
    ;;
  report)
    mkdir -p reports
    while read -r b small schema _; do
        run "$b" "$small" "$schema" -
    done <<< "$BENCHES"
    # shellcheck disable=SC2086
    build/tools/report_tool merge BENCH_report.json $reports \
        || fail report_tool
    ;;
  full)
    row=$(grep -E "^${2:-} " <<< "$BENCHES")
    if [ -z "${2:-}" ] || [ -z "$row" ]; then
        echo "usage: $0 full <bench> (a bench from the table)" >&2
        exit 2
    fi
    mkdir -p reports
    read -r b _ schema _ <<< "$row"
    run "$b" no "$schema" -
    ;;
  check)
    row=$(grep -E "^${2:-} " <<< "$BENCHES")
    if [ -z "${2:-}" ] || [ -z "$row" ] || [ -z "${3:-}" ]; then
        echo "usage: $0 check <bench> <report.json>" >&2
        exit 2
    fi
    read -r b _ schema digest <<< "$row"
    check "$b" "$3" "$schema" "$digest"
    ;;
  wallclock)
    build/bench/bench_wallclock > BENCH_wallclock.json \
        || fail bench_wallclock
    cat BENCH_wallclock.json
    ;;
  *)
    echo "usage: $0 [small | report | full <bench> |" \
         "check <bench> <report.json> | wallclock]" >&2
    exit 2
    ;;
esac
finish
