"""What a warm Randomised Contraction run pays per statement.

``python3 scripts/stmt_costs.py [--only SUBSTRING] [--runs N]``
    loads each shape's G(n, m) graph into one ``Database()``, makes
    warm-up runs and then ``--runs`` timed runs of the fast variant, each
    with a fresh seed, as ``perf/bench.py`` does, and prints per shape:

    * per statement kind (the algorithm's statement label; the unlabelled
      drop / rename statements are ``ddl``): statements per run and
      microseconds per statement, ``db.execute`` call to return;
    * the share of the runs' wall-clock spent in ``PlanCache.entry_for``
      (the text-to-AST lookup every statement makes);
    * the share spent in the axplusb UDF's GF(2^64) maps: constructing
      ``Gf2AffineMap``s and ``Gf2AffineMap.apply`` (which builds a map's
      byte tables on first use).

The timers wrap public methods from outside ``src/``, so the script runs
unchanged against any revision that has those names.  ``--only`` keeps
the shapes whose name contains the substring.  Run it from anywhere; it
puts ``src/`` on the path itself.
"""

from __future__ import annotations

import argparse
import gc
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from repro.core import RandomisedContraction  # noqa: E402
from repro.ff.gf2_64 import Gf2AffineMap  # noqa: E402
from repro.graphs import gnm_random_graph, load_edges_into  # noqa: E402
from repro.sqlengine import Database  # noqa: E402
from repro.sqlengine.plancache import PlanCache  # noqa: E402

#: name -> (vertices, edges, warm-up runs, default timed runs): the shapes
#: of BENCHMARK.json's ``small_2k`` and ``gnm_100k`` workloads.
SHAPES = {
    "G(1k, 2k)": (1_000, 2_000, 20, 200),
    "G(50k, 100k)": (50_000, 100_000, 2, 10),
}
#: The wrapped methods, by the name of the share they count towards.
TIMED = (
    ("PlanCache.entry_for", PlanCache, "entry_for"),
    ("GF(2^64) maps", Gf2AffineMap, "__init__"),
    ("GF(2^64) maps", Gf2AffineMap, "apply"),
)
SHARES = tuple(dict.fromkeys(name for name, _owner, _attr in TIMED))


def _timed(seconds: Counter, name: str, method):
    def wrapper(*args, **kwargs):
        started = time.perf_counter()
        try:
            return method(*args, **kwargs)
        finally:
            seconds[name] += time.perf_counter() - started
    return wrapper


def measure(n: int, m: int, warmups: int, runs: int) -> dict:
    """Time ``runs`` warm runs on one G(n, m): the wall-clock, the calls
    and seconds per statement kind, and the seconds in each wrapped
    method."""
    edges = gnm_random_graph(n, m, np.random.default_rng(1))
    algo = RandomisedContraction()
    kinds: Counter = Counter()
    kind_s: Counter = Counter()
    method_s: Counter = Counter()
    with Database() as db:
        load_edges_into(db, "edges", edges)
        for seed in range(warmups):
            algo.run(db, "edges", seed=1_000 + seed)
        execute = db.execute

        def timed_execute(sql: str, label: str = ""):
            kind = label.rpartition(":")[2] or "ddl"
            started = time.perf_counter()
            try:
                return execute(sql, label=label)
            finally:
                kind_s[kind] += time.perf_counter() - started
                kinds[kind] += 1

        db.execute = timed_execute
        wall = 0.0
        with pytest.MonkeyPatch.context() as monkeypatch:
            for name, owner, attr in TIMED:
                monkeypatch.setattr(owner, attr, _timed(
                    method_s, name, getattr(owner, attr)))
            for seed in range(runs):
                gc.collect()
                started = time.perf_counter()
                algo.run(db, "edges", seed=2_000 + seed)
                wall += time.perf_counter() - started
    return dict(runs=runs, wall_s=wall, kinds=kinds, kind_s=kind_s,
                method_s=method_s)


def report(name: str, costs: dict) -> str:
    runs, wall = costs["runs"], costs["wall_s"]
    kinds, kind_s = costs["kinds"], costs["kind_s"]
    lines = [f"{name}: {runs} warm runs, {1e3 * wall / runs:.2f} ms per run, "
             f"{sum(kinds.values()) / runs:.1f} statements per run"]
    for kind in sorted(kinds, key=lambda k: -kind_s[k]):
        lines.append(f"  {kind:<12} {kinds[kind] / runs:>6.1f} per run "
                     f"{1e6 * kind_s[kind] / kinds[kind]:>10.1f} us each")
    for share in SHARES:
        lines.append(f"  {share:<20} "
                     f"{100 * costs['method_s'][share] / wall:>5.1f}% of wall")
    return "\n".join(lines)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--only", default="",
                        help="keep shapes whose name contains this")
    parser.add_argument("--runs", type=int, default=None,
                        help="timed runs per shape (default: per shape)")
    args = parser.parse_args(argv)
    for name, (n, m, warmups, runs) in SHAPES.items():
        if args.only in name:
            costs = measure(n, m, warmups,
                            runs if args.runs is None else args.runs)
            print(report(name, costs), flush=True)


if __name__ == "__main__":
    main()
