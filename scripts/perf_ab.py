"""Alternating A/B pairs of benchmark workloads: an earlier revision
against the working tree.

``python3 scripts/perf_ab.py --base REV --workload W --pairs N [--seed S]``
(or ``make perf-ab BASE=REV WORKLOAD=W PAIRS=N``) exports ``REV`` with
``git archive`` into a temporary directory, then runs
``python3 perf/run.py --workload W --seconds 0 --trace 0`` N times in each
tree, one pair at a time, the side that goes first alternating from pair
to pair so a drift of the host (thermal, other tenants) lands on both.
``--workload all`` does that for every workload ``BENCHMARK.json`` names,
one after another.

Each run prints one line — ``edges_per_s``, the three count metrics and
RSS / setup.  After each workload come both sides' ``edges_per_s`` median
and quartiles, how many pairs the working tree won, and one row per
end-to-end metric of ``BENCHMARK.json``: both medians, the change/base
ratio, and ``WORSE`` where the change's median is worse than the base's
by more than the metric's ``bound`` in the direction of its ``better``.
A last line says whether ``sql_queries`` and ``written_ratio`` were
identical within every pair.  The exported tree is removed on exit.

``--stages`` adds one ``--trace 1`` pass per side to every pair, after
its untraced runs, and prints both sides' median ``rc.stmt_*_s`` per
statement stage with the change's delta in milliseconds — where in the
round a saving sits.

``--cold`` adds one more process per side to every pair, which loads the
workload's graph into a fresh ``Database`` and times its *first* RC run,
and prints both sides' median first-run seconds.  ``perf/run.py`` times
runs on a database that warm-up runs have used, so a gain that comes from
a cache on the input table shows there on every run; here it is paid
inside the timed run, and shows apart from a per-run gain.
"""

from __future__ import annotations

import argparse
import io
import json
import re
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
#: Count metrics a change that only moves time must leave unchanged.
PER_SEED_CONSTANTS = ("sql_queries", "written_ratio")
#: The traced pass's seconds per statement stage of a run.
STAGE = re.compile(r"rc\.stmt_\w+_s")
#: One fresh process, run in a tree: the workload's graph (argv[1], seed
#: argv[2] or perf/run.py's default) loaded into a new ``Database`` and
#: its first RC run timed by ``perf/bench.py``'s own rep.
COLD_RUN = """
import json, sys
sys.path[:0] = ["src", "."]
from perf.bench import WORKLOADS, Bench
from perf.run import DEFAULT_SEED
seed = int(sys.argv[2]) if len(sys.argv) > 2 else DEFAULT_SEED
rep = Bench(WORKLOADS[sys.argv[1]], seed, 1.0, 0).run_rep(seed + 1)
print(json.dumps({"first_run_s": rep.end - rep.start if rep.error is None
                  else None, "correct": rep.error is None}))
"""


def export(rev: str, into: Path) -> None:
    """The committed files of ``rev``, as a plain directory."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")


def run(tree: Path, workload: str, seed: Optional[int],
        trace: int = 0) -> dict:
    """One pass; its end-to-end metrics (``trace`` 0) or per-layer ones
    (``trace`` 1) by name, plus ``correct``."""
    command = [sys.executable, "perf/run.py", "--workload", workload,
               "--seconds", "0", "--trace", str(trace)]
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


def cold_run(tree: Path, workload: str, seed: Optional[int]) -> dict:
    """One :data:`COLD_RUN` process: its first run's seconds and
    ``correct``."""
    command = [sys.executable, "-c", COLD_RUN, workload]
    if seed is not None:
        command.append(str(seed))
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True,
                          check=False)
    if not done.stdout.strip():
        raise RuntimeError(f"{tree}: cold run of {workload} printed "
                           f"nothing:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, median, high = statistics.quantiles(values, n=4, method="inclusive")
    return low, median, high


def run_pairs(trees: dict, workload: str, pairs: int, seed: Optional[int],
              stages: bool = False,
              cold: bool = False) -> tuple[dict, dict, dict]:
    """``pairs`` alternating base/change runs of one workload, each
    printed as it finishes; the untraced runs per side, in pair order, the
    traced ones (``stages``; none otherwise) and the cold first runs
    (``cold``; none otherwise)."""
    runs: dict[str, list[dict]] = {"base": [], "change": []}
    traced: dict[str, list[dict]] = {"base": [], "change": []}
    first: dict[str, list[dict]] = {"base": [], "change": []}
    for pair in range(pairs):
        order = ("base", "change") if pair % 2 == 0 else ("change", "base")
        for side in order:
            metrics = run(trees[side], workload, seed)
            runs[side].append(metrics)
            shown = "  ".join(f"{name}={metrics[name]:.6g}" for name in SHOWN)
            print(f"{workload} pair {pair + 1} {side:<6} {shown}  "
                  f"correct={metrics['correct']}", flush=True)
        for side in order if stages else ():
            traced[side].append(run(trees[side], workload, seed, trace=1))
        for side in order if cold else ():
            first[side].append(cold_run(trees[side], workload, seed))
            print(f"{workload} pair {pair + 1} {side:<6} first run "
                  f"{first[side][-1]['first_run_s']}", flush=True)
    return runs, traced, first


def worse(metric: dict, base: float, change: float) -> bool:
    """True when ``change`` is worse than ``base`` by more than the
    metric's relative ``bound``, in the direction of its ``better``."""
    if metric["better"] == "higher":
        return change < base * (1 - metric["bound"])
    return change > base * (1 + metric["bound"])


def summarise(workload: str, runs: dict[str, list[dict]],
              end_to_end: list[dict]) -> None:
    """Print one workload's summary."""
    speeds = {side: [m["edges_per_s"] for m in runs[side]] for side in runs}
    for side in ("base", "change"):
        low, median, high = quartiles(speeds[side])
        print(f"{workload} {side:<6} edges_per_s median {median:.6g} "
              f"[{low:.6g}, {high:.6g}]")
    wins = sum(c > b for b, c in zip(speeds["base"], speeds["change"]))
    print(f"{workload} change wins {wins}/{len(speeds['base'])} pairs")
    for metric in end_to_end:
        name = metric["name"]
        base = statistics.median(m[name] for m in runs["base"])
        change = statistics.median(m[name] for m in runs["change"])
        ratio = change / base if base else float("nan")
        flag = "  WORSE" if worse(metric, base, change) else ""
        print(f"{workload} {name:<17} base {base:<12.6g} change "
              f"{change:<12.6g} ratio {ratio:.3f}x{flag}")
    for name in PER_SEED_CONSTANTS:
        same = all(b[name] == c[name]
                   for b, c in zip(runs["base"], runs["change"]))
        print(f"{workload} {name} identical in every pair: {same}")


def summarise_stages(workload: str, traced: dict[str, list[dict]]) -> None:
    """Print both sides' median seconds per statement stage, in ms."""
    names = sorted(name for name in traced["change"][0]
                   if STAGE.fullmatch(name) and name in traced["base"][0])
    for name in names:
        base, change = (statistics.median(m[name] for m in traced[side])
                        for side in ("base", "change"))
        print(f"{workload} {name:<22} base {base * 1e3:9.2f} ms  change "
              f"{change * 1e3:9.2f} ms  delta {(change - base) * 1e3:+.2f} ms")


def summarise_cold(workload: str, first: dict[str, list[dict]]) -> None:
    """Print both sides' median first-run seconds and the change's wins."""
    seconds = {side: [m["first_run_s"] for m in first[side]]
               for side in first}
    for side in ("base", "change"):
        low, median, high = quartiles(seconds[side])
        print(f"{workload} {side:<6} cold first run median {median:.4g} s "
              f"[{low:.4g}, {high:.4g}]")
    wins = sum(c < b for b, c in zip(seconds["base"], seconds["change"]))
    print(f"{workload} change's first run faster in {wins}/"
          f"{len(seconds['base'])} pairs")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True,
                        help="git revision to compare the working tree with")
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' for every workload "
                             "BENCHMARK.json names")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=None,
                        help="perf/run.py's --seed (default: its own)")
    parser.add_argument("--stages", action="store_true",
                        help="add a traced pass per side per pair and print "
                             "the median seconds per statement stage")
    parser.add_argument("--cold", action="store_true",
                        help="add a fresh process per side per pair that "
                             "times the first run on a newly loaded "
                             "database, and print both medians")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = ([w["name"] for w in spec["workloads"]]
                 if args.workload == "all" else [args.workload])
    base_tree = Path(tempfile.mkdtemp(prefix="perf-ab-"))
    try:
        export(args.base, base_tree)
        trees = {"base": base_tree, "change": ROOT}
        all_correct = True
        for workload in workloads:
            runs, traced, first = run_pairs(trees, workload, args.pairs,
                                            args.seed, args.stages, args.cold)
            all_correct &= all(m["correct"]
                               for side in (*runs.values(), *traced.values(),
                                            *first.values())
                               for m in side)
            summarise(workload, runs, spec["end_to_end"])
            if args.stages:
                summarise_stages(workload, traced)
            if args.cold and all(m["correct"] for side in first.values()
                                 for m in side):
                summarise_cold(workload, first)
        return 0 if all_correct else 1
    finally:
        shutil.rmtree(base_tree, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
