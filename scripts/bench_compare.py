#!/usr/bin/env python
"""Diff a fresh BENCH_engine.json against the committed baseline.

Usage: bench_compare.py <baseline.json> <fresh.json>

Prints per-metric deltas (numbers only, flattened by dotted path).
Seconds-valued metrics show speed deltas (negative = faster); rates and
counters show absolute change.  Metrics present on only one side — a
benchmark added since the baseline was committed, or one that was removed —
are reported as ``new`` / ``removed`` instead of failing the comparison.

Exit codes are deterministic so CI can stay informational on them:

* ``0`` — every metric exists on both sides with comparable values;
* ``2`` — an input file is missing or not valid JSON;
* ``3`` — schema drift: new, removed and/or NaN metrics were reported
  (commit a refreshed baseline from ``benchmarks/results/`` when this is
  intended);
* ``4`` — refused: the two files were recorded on different core counts
  (a ``cpu_count`` the sections carry differs), so every timing delta
  would compare machines, not commits — nothing is diffed.  Re-record the
  baseline on the host class it is compared on (``make bench-baseline``).

A metric that is present but NaN on either side is **drift**, not
alignment: NaN means the benchmark recorded a division by zero or a
skipped measurement, and ``NaN == NaN`` comparisons would otherwise let a
silently broken metric pass every future comparison.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path


def flatten(node, prefix: str = "") -> dict[str, float]:
    out: dict[str, float] = {}
    if isinstance(node, dict):
        for key, value in node.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            out.update(flatten(value, path))
    elif isinstance(node, bool):
        pass
    elif isinstance(node, (int, float)):
        out[prefix] = float(node)
    return out


def load(path: Path, hint: str) -> dict[str, float] | None:
    if not path.exists():
        print(f"bench-compare: no {hint} at {path} — nothing to compare")
        return None
    try:
        return flatten(json.loads(path.read_text()))
    except (OSError, json.JSONDecodeError) as error:
        print(f"bench-compare: cannot read {hint} {path}: {error}")
        return None


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    baseline = load(Path(argv[1]), "baseline")
    fresh = load(Path(argv[2]), "fresh results (run `make bench-engine`)")
    if baseline is None or fresh is None:
        return 2
    differing = [
        f"{key} {baseline[key]:g} vs {fresh[key]:g}"
        for key in sorted(baseline.keys() & fresh.keys())
        if key.split(".")[-1] == "cpu_count" and baseline[key] != fresh[key]
    ]
    if differing:
        print("bench-compare: refusing to compare runs of different core "
              "counts (" + ", ".join(differing) + "); re-record the "
              "baseline on this host class with `make bench-baseline`.")
        return 4
    width = max((len(k) for k in baseline | fresh), default=10)
    new_keys = removed_keys = nan_keys = 0
    print(f"{'metric':<{width}}  {'baseline':>12}  {'fresh':>12}  {'delta':>8}")
    for key in sorted(baseline | fresh):
        old = baseline.get(key)
        new = fresh.get(key)
        if old is None:
            new_keys += 1
            print(f"{key:<{width}}  {'-':>12}  {new:>12.6g}  {'new':>8}")
        elif new is None:
            removed_keys += 1
            print(f"{key:<{width}}  {old:>12.6g}  {'-':>12}  {'removed':>8}")
        elif math.isnan(old) or math.isnan(new):
            # Present-but-NaN is a broken measurement, not an aligned one.
            nan_keys += 1
            print(f"{key:<{width}}  {old:>12.6g}  {new:>12.6g}  {'nan':>8}")
        else:
            if old:
                delta = f"{(new - old) / abs(old) * 100:+.1f}%"
            else:
                delta = "+inf%" if new else "0.0%"
            print(f"{key:<{width}}  {old:>12.6g}  {new:>12.6g}  {delta:>8}")
    print("\nbench-compare is informational; timing metrics are in seconds "
          "(negative delta = faster).")
    if new_keys or removed_keys or nan_keys:
        print(f"bench-compare: schema drift — {new_keys} new, "
              f"{removed_keys} removed, {nan_keys} NaN metric(s); refresh "
              f"benchmarks/baselines/ if this is intended.")
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
