#!/usr/bin/env python3
"""Perf- and quality-regression gate over bench_table2 output.

Compares the engine wall-time geometric mean of a fresh BENCH_table2.json
run against the checked-in baseline (bench/baselines/bench_table2_baseline.json)
and fails when the current geomean regresses by more than the threshold,
or when the summed patch cost or patch size of the compared units rises
above the baseline's (these are deterministic, so there is no threshold).

Only units present in BOTH files enter the comparison, and each unit must
have succeeded in both — a unit that fails outright is reported as an error
regardless of timing. Per-unit times on shared CI runners are noisy; the
geomean over the pinned subset (plus the generous default threshold) is the
tradeoff between sensitivity and flakiness. Correctness is never gated here:
ctest does that; this gate watches wall time and patch quality.

Usage:
  tools/bench_gate.py --current BENCH_table2.json \
      --baseline bench/baselines/bench_table2_baseline.json \
      [--threshold-pct 15]

Re-baselining (after an accepted perf change): run the bench job, download
the BENCH_table2.json artifact from CI (or run the same pinned subset
locally on a quiet machine), copy it to the baseline path, and commit it in
the same PR — with `[bench-rebaseline]` in the commit message or the
`bench-rebaseline` label on the PR to skip the gate for that run.
"""

import argparse
import json
import math
import sys


def unit_results(doc):
    """Returns ({unit_name: result}, failed_names); results of successful units."""
    results = {}
    failed = []
    for unit in doc.get("units", []):
        name = unit.get("name", "?")
        result = unit.get("ours", {}).get("result", {})
        if result.get("success", False):
            results[name] = result
        else:
            failed.append(name)
    return results, failed


def unit_times(results):
    """Returns {unit_name: engine_seconds} for the units that report one."""
    times = {}
    for name, result in results.items():
        seconds = result.get("seconds")
        if isinstance(seconds, (int, float)) and seconds >= 0:
            times[name] = float(seconds)
    return times


def quality_regressions(cur_results, base_results, units):
    """Returns one message per patch metric whose sum over `units` rose."""
    messages = []
    for metric in ("cost", "size"):
        cur = sum(cur_results[u].get(metric, 0) for u in units)
        base = sum(base_results[u].get(metric, 0) for u in units)
        print(f"patch {metric}: baseline {base} -> current {cur}")
        if cur > base:
            messages.append(f"summed patch {metric} rose {base} -> {cur}")
    return messages


def geomean(values, floor_s=1e-4):
    # Clamp tiny times to a floor: a unit finishing in microseconds would
    # otherwise dominate the geomean through timer noise.
    return math.exp(sum(math.log(max(v, floor_s)) for v in values) / len(values))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--current", required=True)
    ap.add_argument("--baseline", required=True)
    ap.add_argument("--threshold-pct", type=float, default=15.0)
    args = ap.parse_args()

    with open(args.current) as f:
        current = json.load(f)
    with open(args.baseline) as f:
        baseline = json.load(f)

    cur_results, cur_failed = unit_results(current)
    base_results, _ = unit_results(baseline)
    cur_times = unit_times(cur_results)
    base_times = unit_times(base_results)
    if cur_failed:
        print(f"FAIL: units failed in the current run: {', '.join(cur_failed)}")
        return 1

    shared = sorted(set(cur_times) & set(base_times))
    if not shared:
        print("FAIL: no shared successful units between current and baseline")
        return 1
    missing = sorted(set(base_times) - set(cur_times))
    if missing:
        print(f"WARNING: baseline units missing from current run: {', '.join(missing)}")

    cur_gm = geomean([cur_times[u] for u in shared])
    base_gm = geomean([base_times[u] for u in shared])
    ratio = cur_gm / base_gm
    print(f"units compared: {len(shared)} ({', '.join(shared)})")
    for u in shared:
        print(f"  {u}: baseline {base_times[u]:.4f}s -> current {cur_times[u]:.4f}s "
              f"({cur_times[u] / max(base_times[u], 1e-9):.2f}x)")
    print(f"geomean: baseline {base_gm:.4f}s -> current {cur_gm:.4f}s "
          f"({ratio:.3f}x, threshold {1 + args.threshold_pct / 100:.3f}x)")

    failures = quality_regressions(cur_results, base_results, shared)
    if ratio > 1 + args.threshold_pct / 100:
        failures.append(f"engine wall-time geomean regressed by "
                        f"{(ratio - 1) * 100:.1f}% (> {args.threshold_pct:.0f}%)")
    if failures:
        for message in failures:
            print(f"FAIL: {message}")
        print("If this regression is intended, re-baseline: see the module "
              "docstring or DESIGN.md 'SAT core'.")
        return 1
    print("OK: within threshold, patch cost and size not above baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
