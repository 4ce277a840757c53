#!/usr/bin/env python3
"""Perf-regression gate: compare a `bench/main.exe --json` dump against a
committed baseline and fail if any micro metric regressed beyond the
threshold.

    compare_bench.py BASELINE.json CURRENT.json [--threshold 0.25]

Direction is inferred from the metric name: `...-ns-per-op` is
lower-is-better; `...-insns-per-sec` and `...-speedup` (including the
cached-vs-uncached interpreter ratio) are higher-is-better. Metrics
present on only one side are reported but never fail the gate, so the
baseline does not have to be regenerated when benchmarks are added. A
lower-is-better metric pinned at 0 fails on any positive value.
The nested "metrics" section (virtual-clock observability counters) is
compared informationally only.

A baseline entry `"<section>/_threshold": 0.5` is not a metric: it sets
the tolerated fractional regression for every `<section>/...` metric,
overriding --threshold for that section (e.g. the multicore scaling
gate pins `"multicore/_threshold": 0.5`, i.e. the pinned >=2x speedups
may lose at most half before the gate trips).

Stdlib only; exit 0 = pass, 1 = regression, 2 = usage/IO error.
"""

import argparse
import json
import re
import sys


def direction(name):
    # sweep variants (…-c4 cores, …-c5000 connections) keep the
    # direction of their base metric
    name = re.sub(r"-c\d+$", "", name)
    # the metric stem may follow the section slash directly
    # (e.g. "jit/insns-per-sec"), so match stems, not just "-stem"
    stem = name.rsplit("/", 1)[-1]
    if stem.endswith("ns-per-op") or stem.endswith("ns-per-block"):
        return "lower"
    if stem.endswith("deopts"):
        return "lower"  # a rising deopt count means the JIT bails more often
    if (
        stem.endswith("insns-per-sec")
        or stem.endswith("speedup")
        or stem.endswith("elided-guards")  # static elision count: may only grow
    ):
        return "higher"
    return "lower"


def flatten(doc):
    """Top-level scalars, the nested metrics section, and per-section
    `<section>/_threshold` overrides (which are config, not metrics)."""
    scalars, metrics, thresholds = {}, {}, {}
    for key, value in doc.items():
        if key.endswith("/_threshold") and isinstance(value, (int, float)):
            thresholds[key[: -len("/_threshold")]] = float(value)
        elif isinstance(value, (int, float)):
            scalars[key] = float(value)
        elif key == "metrics" and isinstance(value, dict):
            for mk, mv in value.items():
                if isinstance(mv, (int, float)):
                    metrics[mk] = float(mv)
    return scalars, metrics, thresholds


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="maximum tolerated fractional regression (default 0.25 = 25%%)",
    )
    args = ap.parse_args()

    try:
        with open(args.baseline) as f:
            base_scalars, base_metrics, thresholds = flatten(json.load(f))
        with open(args.current) as f:
            cur_scalars, cur_metrics, _ = flatten(json.load(f))
    except (OSError, json.JSONDecodeError) as e:
        print(f"compare_bench: {e}", file=sys.stderr)
        return 2

    def threshold_for(name):
        section = name.split("/", 1)[0] if "/" in name else ""
        return thresholds.get(section, args.threshold)

    if not base_scalars:
        print("compare_bench: baseline has no scalar metrics", file=sys.stderr)
        return 2

    width = max(len(k) for k in set(base_scalars) | set(cur_scalars))
    header = (
        f"{'metric':<{width}} {'baseline':>14} {'current':>14} "
        f"{'delta':>8} {'dir':>6}  status"
    )
    print(header)
    print("-" * len(header))

    failed = []
    for name in sorted(set(base_scalars) | set(cur_scalars)):
        if name not in cur_scalars:
            print(f"{name:<{width}} {base_scalars[name]:>14.6g} {'-':>14} "
                  f"{'-':>8} {'-':>6}  missing in current (ignored)")
            continue
        if name not in base_scalars:
            print(f"{name:<{width}} {'-':>14} {cur_scalars[name]:>14.6g} "
                  f"{'-':>8} {'-':>6}  new (ignored)")
            continue
        base, cur = base_scalars[name], cur_scalars[name]
        d = direction(name)
        if base == 0:
            # a zero pin on a lower-is-better metric (e.g. decode-cache
            # builds per respawn) is exact: anything above it regresses
            regression = float("inf") if d == "lower" and cur > 0 else 0.0
        elif d == "lower":
            regression = (cur - base) / base
        else:
            regression = (base - cur) / base
        # delta always printed as the raw change relative to baseline
        delta = (cur - base) / base if base else 0.0
        limit = threshold_for(name)
        if regression > limit:
            status = f"FAIL (>{limit:.0%} regression)"
            failed.append(name)
        else:
            status = "ok"
        print(f"{name:<{width}} {base:>14.6g} {cur:>14.6g} "
              f"{delta:>+7.1%} {d:>6}  {status}")

    drifted = [
        k
        for k in sorted(set(base_metrics) & set(cur_metrics))
        if base_metrics[k] != cur_metrics[k]
    ]
    if base_metrics or cur_metrics:
        print(f"\nmetrics section: {len(cur_metrics)} entries, "
              f"{len(drifted)} differ from baseline (informational)")
        for k in drifted:
            print(f"  {k}: {base_metrics[k]:g} -> {cur_metrics[k]:g}")

    if failed:
        print(f"\nFAILED: {len(failed)} metric(s) regressed past their "
              f"threshold: {', '.join(failed)}")
        return 1
    print(f"\nOK: no metric regressed past its threshold "
          f"(default {args.threshold:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
