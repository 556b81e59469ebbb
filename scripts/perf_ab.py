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

``--interleaved`` runs both sides in this one process instead: the
exported tree's ``src/repro`` is imported as package ``repro_base``
beside the working tree's ``repro`` (which works because ``repro``
imports itself only relatively), each side keeps one warm ``Database``
per workload — the workload's graph loaded and its warm-up runs made, as
``perf/bench.py`` does — and the pairs alternate single RC runs, both
sides with the same RC seed.  A drift of the host that lasts longer than
one run lands on both sides alike, so the pairs read a change that
separate processes, minutes apart, cannot tell from drift.  It prints
every run's milliseconds, each side's median and quartiles, the win
count, both sides' median milliseconds per statement stage (from
``stats.log``), and fails if the two sides' result tables differ on any
run.

``--grid`` (or ``make grid-ab BASE=REV PAIRS=N``) runs the paper's Table
III grid the same way, both sides in this one process: RC, HM, TP, CR and
the Spark model's RC on every dataset of the table, at ``REPRO_SCALE``
(default 0.5, as ``make bench``), under the space budget of
``repro.bench.Harness``, each cell on a fresh database.  A first round of
every cell warms both sides up; then ``--pairs`` rounds alternate which
side runs each cell first.  It prints every cell's median milliseconds
per side with its quartiles over the rounds, the rounds the change ran
faster, and ``~`` when the change's median lies within the base's
quartiles — a difference the cell's own spread can make (at three
rounds a cell swings by some 15%); then each dataset's HM/RC, CR/RC and
TP/RC ratios on the working tree beside the paper's, and per algorithm
both sides' median total over the cells that finished, with its
quartiles over the rounds.  It fails if
any cell's labels, statement count, bytes written, motion bytes, peak
bytes or finish differ between the sides.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import importlib.util
import io
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Optional

import numpy as np

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


#: The package name the exported tree's ``src/repro`` is imported under.
BASE_PACKAGE = "repro_base"


def import_base(tree: Path) -> None:
    """Import ``tree``'s ``src/repro`` as package :data:`BASE_PACKAGE`."""
    package = tree / "src" / "repro"
    spec = importlib.util.spec_from_file_location(
        BASE_PACKAGE, package / "__init__.py",
        submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[BASE_PACKAGE] = module
    spec.loader.exec_module(module)


def _statement_kind(label: str) -> str:
    """The stage of a logged statement: its label's last part, ``ddl``
    for the drops and renames, which the algorithm does not label (the
    log names them by statement class) — as ``perf/bench.py`` counts."""
    return label.rpartition(":")[2] if ":" in label else "ddl"


class WarmSide:
    """One side of an interleaved A/B: package ``package``'s ``Database``
    with the workload's graph loaded and its warm-up runs made."""

    def __init__(self, package: str, workload, edges, seed: int):
        core = importlib.import_module(f"{package}.core")
        sqlengine = importlib.import_module(f"{package}.sqlengine")
        graphs_io = importlib.import_module(f"{package}.graphs.io")
        self.db = sqlengine.Database()
        graphs_io.load_edges_into(self.db, "edges", edges)
        self.algo = core.RandomisedContraction(variant=workload.variant)
        for i in range(workload.warmups):
            self.run(seed + 1 + i)

    def run(self, rc_seed: int) -> tuple[float, dict, str]:
        """One RC run: its seconds, seconds per statement stage, and a
        digest of the result table (column names, values, null masks)."""
        self.db.reset_stats()
        gc.collect()
        result = self.algo.run(self.db, "edges", seed=rc_seed)
        stages: dict[str, float] = {}
        for record in self.db.stats.log:
            kind = _statement_kind(record.label)
            stages[kind] = stages.get(kind, 0.0) + record.elapsed_seconds
        table = self.db.table(result.result_table)
        digest = hashlib.sha256()
        for name in table.column_names:
            column = table.column(name)
            digest.update(name.encode())
            digest.update(column.values.tobytes())
            digest.update(column.null_mask().tobytes())
        return result.elapsed_seconds, stages, digest.hexdigest()

    def close(self) -> None:
        self.db.close()


def run_interleaved(workload: str, pairs: int, seed: int,
                    scale: float = 1.0) -> bool:
    """``pairs`` alternating single runs of ``workload`` on a warm
    database per side, both sides in this process; prints every run and
    the summaries, and returns whether every run's result tables agreed.
    The base side is package :data:`BASE_PACKAGE` (:func:`import_base`
    must have run), the change side ``repro``."""
    from perf.bench import WORKLOADS
    spec = WORKLOADS[workload]
    edges = spec.graph(scale, np.random.default_rng(seed))
    sides = {"base": WarmSide(BASE_PACKAGE, spec, edges, seed),
             "change": WarmSide("repro", spec, edges, seed)}
    seconds: dict[str, list[float]] = {"base": [], "change": []}
    stages: dict[str, list[dict]] = {"base": [], "change": []}
    agreed = True
    try:
        for pair in range(pairs):
            rc_seed = seed + 1 + spec.warmups + pair
            order = ("base", "change") if pair % 2 == 0 else ("change", "base")
            digests = {}
            for side in order:
                elapsed, per_stage, digests[side] = sides[side].run(rc_seed)
                seconds[side].append(elapsed)
                stages[side].append(per_stage)
            same = digests["base"] == digests["change"]
            agreed &= same
            print(f"{workload} pair {pair + 1} base "
                  f"{seconds['base'][-1] * 1e3:.1f} ms  change "
                  f"{seconds['change'][-1] * 1e3:.1f} ms  results "
                  f"{'identical' if same else 'DIFFER'}", flush=True)
    finally:
        for side in sides.values():
            side.close()
    for side in ("base", "change"):
        low, median, high = quartiles(seconds[side])
        print(f"{workload} {side:<6} run median {median * 1e3:.1f} ms "
              f"[{low * 1e3:.1f}, {high * 1e3:.1f}]")
    wins = sum(c < b for b, c in zip(seconds["base"], seconds["change"]))
    base, change = (statistics.median(seconds[side])
                    for side in ("base", "change"))
    print(f"{workload} change wins {wins}/{pairs} pairs, median ratio "
          f"{change / base:.3f}x")
    kinds = sorted({kind for side in stages.values() for run in side
                    for kind in run})
    for kind in kinds:
        base, change = (statistics.median(run.get(kind, 0.0)
                                          for run in stages[side])
                        for side in ("base", "change"))
        print(f"{workload} stage {kind:<12} base {base * 1e3:9.2f} ms  "
              f"change {change * 1e3:9.2f} ms  delta "
              f"{(change - base) * 1e3:+.2f} ms")
    print(f"{workload} result tables identical on every run: {agreed}")
    return agreed


#: The Table III grid's columns: name -> (algorithm, on the Spark model).
GRID_ALGORITHMS = {"rc": ("rc", False), "hm": ("hm", False),
                   "tp": ("tp", False), "cr": ("cr", False),
                   "rc-spark": ("rc", True)}
#: What a grid cell must report alike on both sides.
GRID_IDENTICAL = ("ok", "labels", "sql_queries", "bytes_written",
                  "motion_bytes", "peak_bytes")


class GridSide:
    """One side of the grid A/B: package ``package``'s bench harness at
    ``scale``, which builds and keeps every dataset of the grid."""

    def __init__(self, package: str, scale: float):
        bench = importlib.import_module(f"{package}.bench")
        self.sqlengine = importlib.import_module(f"{package}.sqlengine")
        self.spark = importlib.import_module(f"{package}.spark")
        self.graphs_io = importlib.import_module(f"{package}.graphs.io")
        self.runner = importlib.import_module(f"{package}.core.runner")
        self.datasets = importlib.import_module(
            f"{package}.graphs.datasets").TABLE_DATASETS
        self.harness = bench.Harness(scale=scale)
        self.budget = self.harness.budget_bytes(self.datasets)

    def run(self, dataset: str, algorithm: str, spark: bool) -> dict:
        """One cell as ``Harness.run_once`` runs it: its seconds, whether
        it finished within the budget, and what :data:`GRID_IDENTICAL`
        compares — the labels as a digest of the (vertex, label) pairs in
        vertex order."""
        factory = self.spark.SparkSQLDatabase if spark \
            else self.sqlengine.Database
        db = factory(n_segments=self.harness.n_segments,
                     space_budget_bytes=self.budget)
        try:
            self.graphs_io.load_edges_into(db, "ccinput",
                                           self.harness.dataset(dataset))
            gc.collect()
            algo = self.runner.make_algorithm(algorithm)
            try:
                run = algo.run(db, "ccinput", seed=self.harness.seed)
            except self.sqlengine.SpaceBudgetExceeded as exc:
                return {"ok": False, "seconds": None, "labels": None,
                        "sql_queries": None,
                        "bytes_written": db.stats.bytes_written,
                        "motion_bytes": db.stats.motion_bytes,
                        "peak_bytes": exc.used_bytes}
            vertices, labels = run.labels(db)
            order = np.argsort(vertices, kind="stable")
            digest = hashlib.sha256(vertices[order].tobytes())
            digest.update(labels[order].tobytes())
            return {"ok": True, "seconds": run.elapsed_seconds,
                    "labels": digest.hexdigest(),
                    "sql_queries": run.sql_queries,
                    "bytes_written": run.stats.bytes_written,
                    "motion_bytes": run.stats.motion_bytes,
                    "peak_bytes": run.stats.peak_live_bytes}
        finally:
            db.close()


def cell_summary(base: list[float], change: list[float]) -> str:
    """One grid cell's seconds over the rounds, paired round by round, as
    one line: each side's median milliseconds with its quartiles, the
    ratio of the medians, the rounds the change ran faster, and ``~`` when
    the change's median lies within the base's quartiles."""
    (b_low, b_mid, b_high), (c_low, c_mid, c_high) = (
        [value * 1e3 for value in quartiles(side)] for side in (base, change))
    wins = sum(c < b for b, c in zip(base, change))
    within = "  ~" if b_low <= c_mid <= b_high else ""
    return (f"base {b_mid:9.1f} ms [{b_low:.1f}, {b_high:.1f}]  "
            f"change {c_mid:9.1f} ms [{c_low:.1f}, {c_high:.1f}]  "
            f"ratio {c_mid / b_mid:.3f}x  wins {wins}/{len(base)}{within}")


def run_grid(pairs: int, scale: float,
             datasets: Optional[list[str]] = None) -> bool:
    """One warm-up round and ``pairs`` timed rounds of the Table III grid
    (its ``datasets`` only, when given), both sides in this process, the
    side that runs a cell first alternating from cell to cell and round
    to round; prints every mismatch and the summaries, and returns whether
    every cell agreed on :data:`GRID_IDENTICAL` in every round."""
    from repro.bench.tables import PAPER_TABLE3
    sides = {"base": GridSide(BASE_PACKAGE, scale),
             "change": GridSide("repro", scale)}
    datasets = datasets or sides["change"].datasets
    cells = [(dataset, name) for dataset in datasets
             for name in GRID_ALGORITHMS]
    seconds: dict = {(cell, side): [] for cell in cells for side in sides}
    finished = set(cells)
    agreed = True
    for round_number in range(pairs + 1):
        for index, cell in enumerate(cells):
            algorithm, spark = GRID_ALGORITHMS[cell[1]]
            order = ("base", "change") if (round_number + index) % 2 == 0 \
                else ("change", "base")
            outcome = {side: sides[side].run(cell[0], algorithm, spark)
                       for side in order}
            differ = [key for key in GRID_IDENTICAL
                      if outcome["base"][key] != outcome["change"][key]]
            if differ:
                agreed = False
                print(f"grid {cell[0]} {cell[1]} round {round_number}: "
                      f"{', '.join(differ)} DIFFER", flush=True)
            if not all(outcome[side]["ok"] for side in sides):
                finished.discard(cell)
            elif round_number:
                for side in sides:
                    seconds[cell, side].append(outcome[side]["seconds"])
        print(f"grid round {round_number}"
              f"{' (warm-up)' if round_number == 0 else ''} done",
              flush=True)
    medians = {key: statistics.median(values) if values else None
               for key, values in seconds.items()}
    for dataset, name in cells:
        if (dataset, name) not in finished:
            print(f"grid {dataset:<17} {name:<8} did not finish")
            continue
        print(f"grid {dataset:<17} {name:<8} " + cell_summary(
            *(seconds[(dataset, name), side] for side in sides)))
    for dataset in datasets:
        paper = PAPER_TABLE3[dataset]
        rc = medians[(dataset, "rc"), "change"]
        ratios = []
        for name in ("hm", "cr", "tp"):
            ours = "-" if (dataset, name) not in finished \
                else f"{medians[(dataset, name), 'change'] / rc:.2f}"
            theirs = "-" if paper[name] is None \
                else f"{paper[name] / paper['rc']:.2f}"
            ratios.append(f"{name.upper()}/RC {ours} (paper {theirs})")
        print(f"grid {dataset:<17} " + "  ".join(ratios))
    for name in GRID_ALGORITHMS:
        done = [cell for cell in cells if cell[1] == name and cell in finished]
        for side in sides:
            totals = [sum(seconds[cell, side][i] for cell in done)
                      for i in range(pairs)]
            low, median, high = quartiles(totals)
            print(f"grid total {name:<8} {side:<6} {median:.3f} s "
                  f"[{low:.3f}, {high:.3f}] over {len(done)} cells")
    print(f"grid cells identical on every round: {agreed}")
    return agreed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True,
                        help="git revision to compare the working tree with")
    parser.add_argument("--workload",
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
    parser.add_argument("--interleaved", action="store_true",
                        help="run both sides in this process, alternating "
                             "single runs on one warm database per side")
    parser.add_argument("--grid", action="store_true",
                        help="A/B the Table III grid at REPRO_SCALE in this "
                             "process instead of a workload")
    args = parser.parse_args(argv)
    if (args.workload is None) == (not args.grid):
        parser.error("give --workload or --grid")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = ([w["name"] for w in spec["workloads"]]
                 if args.workload == "all" else [args.workload])
    base_tree = Path(tempfile.mkdtemp(prefix="perf-ab-"))
    try:
        export(args.base, base_tree)
        if args.interleaved or args.grid:
            for path in (ROOT / "src", ROOT):
                sys.path.insert(0, str(path))
            import_base(base_tree)
        if args.grid:
            # The benchmarks' default scale (benchmarks/conftest.py).
            scale = float(os.environ.get("REPRO_SCALE", "0.5"))
            return 0 if run_grid(args.pairs, scale) else 1
        if args.interleaved:
            from perf.run import DEFAULT_SEED
            seed = DEFAULT_SEED if args.seed is None else args.seed
            agreed = [run_interleaved(workload, args.pairs, seed)
                      for workload in workloads]
            return 0 if all(agreed) else 1
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
