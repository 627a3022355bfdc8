#!/usr/bin/env python3
"""Compare two sets of bench_e2e run reports (the --json files).

    python3 bench/e2e/compare.py BASE_DIR NEW_DIR [--layers]
    python3 bench/e2e/compare.py RUNS_DIR [--layers]

For each workload and end-to-end metric it prints each side's median
and quartiles over its untraced runs and a verdict under the bound
BENCHMARK.json fixes for the metric:

  unresolved  the base runs spread (quartile distance / median) more
              than the bound, and not every new run beats every base run
  worse       the new median is worse than the base median by more than
              the bound
  better      the new run wins at least 9 of 10 index-paired runs, and
              the medians differ by more than the base quartile distance
  unchanged   otherwise

It also checks that every run is correct and that all runs of one
workload and seed report the same point digests. It exits 1 on a worse
metric, a digest split or an incorrect run. With one directory it
prints the statistics and checks only.

--layers prints the traced runs' per-layer self times and shares
(median over runs), whether they sum to the pass time, and the tracing
overhead each traced run measured against its own untraced passes.
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_runs(directory):
    runs = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            try:
                doc = json.load(f)
            except json.JSONDecodeError:
                continue
        if isinstance(doc, dict) and doc.get("bench") == "bench_e2e":
            doc["path"] = path
            runs.append(doc)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base, new, bound, lower_is_better):
    sign = 1.0 if lower_is_better else -1.0
    q1, med_a, q3 = quartiles(base)
    med_b = statistics.median(new)
    spread = (q3 - q1) / med_a
    worse_by = sign * (med_b - med_a) / med_a
    every_new_better = all(sign * (b - a) < 0 for a in base for b in new)
    if spread > bound and not every_new_better:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    pairs = list(zip(base, new))
    wins = sum(1 for a, b in pairs if sign * (b - a) < 0)
    if pairs and wins >= 0.9 * len(pairs) and abs(med_b - med_a) > q3 - q1:
        return "better"
    return "unchanged"


def by_workload(runs, traced):
    out = {}
    for r in runs:
        if bool(r.get("trace")) == traced:
            out.setdefault(r["workload"], []).append(r)
    return out


def check_runs(runs):
    """Incorrect runs and digest splits; returns the problem count."""
    problems = 0
    for r in runs:
        if not r["correct"]:
            print(f"INCORRECT: {r['path']} ({r['failed']} of "
                  f"{r['attempted']} points failed)")
            problems += 1
    groups = {}
    for r in runs:
        groups.setdefault((r["workload"], r["seed"]), []).append(r)
    for (workload, seed), rs in sorted(groups.items()):
        ref = rs[0]["digests"]
        for r in rs[1:]:
            if r["digests"] != ref:
                diff = sorted(k for k in set(ref) | set(r["digests"])
                              if ref.get(k) != r["digests"].get(k))
                print(f"DIGEST SPLIT: {workload} seed {seed}: "
                      f"{rs[0]['path']} vs {r['path']} differ at "
                      f"{', '.join(diff)}")
                problems += 1
    return problems


def fmt(q):
    return f"{q[1]:10.4f} [{q[0]:.4f}, {q[2]:.4f}]"


def print_metrics(metrics, base, new):
    problems = 0
    base_w = by_workload(base, False)
    new_w = by_workload(new, False) if new is not None else {}
    for workload in sorted(set(base_w) | set(new_w)):
        print(f"\n{workload}")
        for m in metrics:
            name = m["name"]
            a = [r["metrics"][name]["value"]
                 for r in base_w.get(workload, [])]
            if new is None:
                if a:
                    q = quartiles(a)
                    print(f"  {name:12s} {fmt(q)} {m['unit']}  n={len(a)} "
                          f"spread {100 * (q[2] - q[0]) / q[1]:.2f}% "
                          f"(bound {100 * m['bound']:.0f}%)")
                continue
            b = [r["metrics"][name]["value"]
                 for r in new_w.get(workload, [])]
            if not a or not b:
                print(f"  {name:12s} missing runs (base {len(a)}, "
                      f"new {len(b)})")
                continue
            v = verdict(a, b, m["bound"], m["better"] == "lower")
            qa, qb = quartiles(a), quartiles(b)
            delta = 100 * (qb[1] - qa[1]) / qa[1]
            print(f"  {name:12s} base {fmt(qa)}  new {fmt(qb)} {m['unit']}"
                  f"  {delta:+6.2f}%  {v}")
            if v == "worse":
                problems += 1
    return problems


def print_layers(sides):
    for label, runs in sides:
        for workload, rs in sorted(by_workload(runs, True).items()):
            print(f"\n{label} {workload}: {len(rs)} traced runs")
            names = list(rs[0]["layers"])
            for name in names:
                share = statistics.median(
                    r["layers"][name]["share_pct"] for r in rs)
                self_s = statistics.median(
                    r["layers"][name]["self_s"] for r in rs)
                print(f"  {name:26s} {self_s:10.4f} s {share:6.2f}%")
            gap = max(abs(r["layer_sum_s"] - r["pass_mean_s"]) /
                      r["pass_mean_s"] for r in rs)
            print(f"  layers sum to setup + wall within {100 * gap:.4f}%")
            overhead = statistics.median(
                r["trace_overhead_pct"] for r in rs)
            print(f"  tracing overhead: median {overhead:+.2f}% over "
                  f"{len(rs)} runs")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("dirs", nargs="+", help="BASE_DIR [NEW_DIR]")
    ap.add_argument("--layers", action="store_true",
                    help="print traced per-layer shares")
    ap.add_argument("--bench", default=os.path.join(
        HERE, "..", "..", "BENCHMARK.json"), help="BENCHMARK.json path")
    args = ap.parse_args()
    if len(args.dirs) > 2:
        ap.error("give one or two directories")
    with open(args.bench) as f:
        metrics = json.load(f)["end_to_end"]

    base = load_runs(args.dirs[0])
    new = load_runs(args.dirs[1]) if len(args.dirs) == 2 else None
    if not base or (new is not None and not new):
        sys.exit("compare.py: no bench_e2e reports found")

    problems = check_runs(base + (new or []))
    problems += print_metrics(metrics, base, new)
    if args.layers:
        sides = [("base", base)] + ([("new", new)] if new else [])
        print_layers(sides)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
