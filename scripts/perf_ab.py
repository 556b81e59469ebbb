"""Alternating A/B pairs of one benchmark workload: an earlier revision
against the working tree.

``python3 scripts/perf_ab.py --base REV --workload W --pairs N [--seed S]``
(or ``make perf-ab BASE=REV WORKLOAD=W PAIRS=N``) exports ``REV`` with
``git archive`` into a temporary directory, then runs
``python3 perf/run.py --workload W --seconds 0 --trace 0`` N times in each
tree, one pair at a time, the side that goes first alternating from pair
to pair so a drift of the host (thermal, other tenants) lands on both.
Each run prints one line — ``edges_per_s``, the three count metrics and
RSS / setup — and the end prints both sides' ``edges_per_s`` median and
quartiles and how many pairs the working tree won.  The exported tree is
removed on exit.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
SHOWN = ("edges_per_s", "sql_queries", "written_ratio", "peak_space_ratio",
         "peak_rss_mb", "setup_s")


def export(rev: str, into: Path) -> None:
    """The committed files of ``rev``, as a plain directory."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")


def run(tree: Path, workload: str, seed: Optional[int]) -> dict:
    """One untraced pass; its end-to-end metrics by name, plus
    ``correct``."""
    command = [sys.executable, "perf/run.py", "--workload", workload,
               "--seconds", "0", "--trace", "0"]
    if seed is not None:
        command += ["--seed", str(seed)]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True,
                          check=False)
    if not done.stdout.strip():
        raise RuntimeError(f"{tree}: {' '.join(command)} printed nothing:\n"
                           f"{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    metrics = {name: entry["value"]
               for name, entry in result["metrics"].items()}
    metrics["correct"] = result["correct"] and not result["failed"]
    return metrics


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, median, high = statistics.quantiles(values, n=4, method="inclusive")
    return low, median, high


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True,
                        help="git revision to compare the working tree with")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=None,
                        help="perf/run.py's --seed (default: its own)")
    args = parser.parse_args(argv)
    base_tree = Path(tempfile.mkdtemp(prefix="perf-ab-"))
    try:
        export(args.base, base_tree)
        trees = {"base": base_tree, "change": ROOT}
        speeds: dict[str, list[float]] = {"base": [], "change": []}
        all_correct = True
        for pair in range(args.pairs):
            order = ("base", "change") if pair % 2 == 0 else ("change", "base")
            for side in order:
                metrics = run(trees[side], args.workload, args.seed)
                all_correct &= metrics["correct"]
                speeds[side].append(metrics["edges_per_s"])
                shown = "  ".join(f"{name}={metrics[name]:.6g}"
                                  for name in SHOWN)
                print(f"pair {pair + 1} {side:<6} {shown}  "
                      f"correct={metrics['correct']}", flush=True)
        for side in ("base", "change"):
            low, median, high = quartiles(speeds[side])
            print(f"{side:<6} edges_per_s median {median:.6g} "
                  f"[{low:.6g}, {high:.6g}]")
        wins = sum(c > b for b, c in zip(speeds["base"], speeds["change"]))
        ratio = statistics.median(speeds["change"]) / statistics.median(
            speeds["base"])
        print(f"change wins {wins}/{args.pairs} pairs; median ratio "
              f"{ratio:.3f}x")
        return 0 if all_correct else 1
    finally:
        shutil.rmtree(base_tree, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
