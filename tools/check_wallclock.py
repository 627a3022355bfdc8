#!/usr/bin/env python3
"""Wall-clock regression gate for the kernel benchmarks.

Compares a freshly generated bench_wallclock JSON against the
checked-in BENCH_wallclock.json. Absolute milliseconds are useless
across hosts (and noisy even on one), so every kernel is judged on an
*in-run ratio*: its time relative to the scalar reference kernels
measured in the same binary invocation. A kernel fails the gate when
its normalized speed drops more than --tolerance (default 25%) below
the checked-in baseline's.

Usage: check_wallclock.py FRESH.json BASELINE.json [--tolerance 0.25]
"""

import argparse
import json
import sys


def in_run_ratios(doc):
    """Normalized speeds: bigger is better, host speed cancels."""
    cur = doc["current"]
    ref = cur["filter_scalar_ref_ms"]
    ratios = {}

    def put(name, base_ms, now_ms):
        if base_ms > 0 and now_ms > 0:
            ratios[name] = base_ms / now_ms

    # Direct ref/optimized pairs measured in the same run.
    put("filter_vectorized", ref, cur["filter_vectorized_ms"])
    put("hash_agg_flat", cur["hash_agg_ref_ms"], cur["hash_agg_flat_ms"])
    put("hash_join_flat", cur["hash_join_ref_ms"],
        cur["hash_join_flat_ms"])
    # Serial LLC trace replay, and the same per-access loop through
    # LlcSim::access, against a per-access loop over the interleaved-row
    # LLC of bench/reference_llc.h: all single-threaded, so the ratios
    # do not depend on the core count.
    put("llc_replay", cur.get("llc_replay_ref_ms", 0),
        cur.get("llc_replay_ms", 0))
    put("llc_access", cur.get("llc_replay_ref_ms", 0),
        cur.get("llc_access_ms", 0))
    # Kernels without a dedicated reference: normalize by the scalar
    # filter, the most stable in-binary yardstick.
    put("eval_column", ref, cur["eval_column_ms"])
    return ratios


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("fresh")
    ap.add_argument("baseline")
    ap.add_argument("--tolerance", type=float, default=0.25,
                    help="allowed fractional drop in normalized speed")
    args = ap.parse_args()

    with open(args.fresh) as f:
        fresh = json.load(f)
    with open(args.baseline) as f:
        base = json.load(f)

    fresh_r = in_run_ratios(fresh)
    base_r = in_run_ratios(base)

    failures = []
    for name, base_speed in sorted(base_r.items()):
        now = fresh_r.get(name)
        if now is None:
            failures.append(f"{name}: missing from fresh run")
            continue
        floor = base_speed * (1.0 - args.tolerance)
        verdict = "OK" if now >= floor else "REGRESSED"
        print(f"{name:20s} baseline {base_speed:6.2f}x  "
              f"now {now:6.2f}x  floor {floor:6.2f}x  {verdict}")
        if now < floor:
            failures.append(
                f"{name}: {now:.2f}x vs baseline {base_speed:.2f}x "
                f"(floor {floor:.2f}x)")

    if failures:
        print("\nwall-clock regression gate FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("\nwall-clock regression gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
