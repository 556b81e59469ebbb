"""Which key forms each keyed operator of each shipped algorithm sees.

``python3 scripts/key_forms.py [--only SUBSTRING]``
    runs every configuration of ``tests/test_traffic.py``'s
    ``_configurations()`` — every shipped algorithm on ``Database()`` at
    its defaults, and Randomised Contraction on the Spark model — with
    spies on the engine's keyed operators, and prints, per configuration,
    each operator's key forms and route with the number of calls:

    * ``join``: ``executor.join_rows``' probe and build keys, the route
      note it chose and whether it read a cached build index (``idx``,
      ``offset idx``) or none (``-``, ``dense -``);
    * ``distinct``: the columns of ``executor.distinct_rows`` or of a
      fused join→DISTINCT's block loop (``executor.packed_distinct``)
      and the branch of the one DISTINCT kernel that ran; a packed one
      adds its word width (``32``: ``uint32`` words, ``64``: int64) and
      the forms its blocks selected their rows in (``all``, a WHERE's
      ``mask`` or its ``positions``, ``+``-joined when blocks differ);
    * ``group``: a GROUP BY's keys and its layout — ``runs`` (the key
      arrived sorted: ``run_starts`` served it), ``direct``
      (``direct_group_rows`` served it) or ``sorted``
      (``Executor._group_kernel``);
    * ``udf``: each immutable-UDF evaluation over an encoded column's
      ``dictionary`` (``functions._EvaluatedDomain``); a call over a
      plain column passes every row and builds none.

    The Spark model runs its own partitioned kernels, so its joins,
    DISTINCTs and GROUP BYs are read off ``SparkExecutor``'s
    ``_dispatch_join`` (route ``spark-partitioned -``: it reads no
    index), ``_distinct_kernel`` (the branch of its last pass) and
    ``_group_kernel`` (``partitioned``).

A key column's form is ``codes`` (dictionary-encoded), ``plain`` (int64
values) or its SQL type; a multi-column key joins its columns' forms with
``+``.  ``--only`` keeps the configurations whose name contains the
substring.  Run it from anywhere; it puts ``src/`` and the repository
root on the path itself.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

import pytest  # noqa: E402

from repro.graphs import load_edges_into  # noqa: E402
from repro.spark.engine import SparkExecutor  # noqa: E402
from repro.sqlengine import executor, functions, operators  # noqa: E402
from tests.distinct_reference import record_branches  # noqa: E402
from tests.test_traffic import _configurations  # noqa: E402


def key_form(columns) -> str:
    """``codes``, ``plain`` or the SQL type of each column, ``+``-joined."""
    return "+".join(
        "codes" if col.codes is not None
        else "plain" if col.sql_type == "int64" else col.sql_type
        for col in columns)


def spy(monkeypatch) -> Counter:
    """Install the spies; the counter receives ``(operator, forms, route)``
    for every keyed operator that runs from here on."""
    seen: Counter = Counter()
    branches = record_branches(monkeypatch)
    packings: list[str] = []
    selections: set = set()
    unpack = operators._unpack
    pack_rows = operators._pack_rows
    join_rows = executor.join_rows
    distinct_rows = executor.distinct_rows
    blocked_distinct = executor.packed_distinct
    group_kernel = executor.Executor._group_kernel
    run_starts = executor.run_starts
    direct_group_rows = executor.direct_group_rows

    def joining(left_keys, right_keys, right_index=None):
        joined = join_rows(left_keys, right_keys, right_index)
        seen["join", f"{key_form(left_keys)} = {key_form(right_keys)}",
             f"{operators.JOIN_ROUTES[joined[0]]} "
             f"{'-' if right_index is None else 'idx'}"] += 1
        return joined

    def selecting(keys, columns, rows, *args):
        selections.add("all" if rows is None
                       else "mask" if rows.dtype == bool else "positions")
        return pack_rows(keys, columns, rows, *args)

    def packing(keys, words):
        width = sum(key.width for key in keys)
        packings.append(
            f"{32 if width <= operators.NARROW_WORD_BITS else 64} "
            f"{'+'.join(sorted(selections)) or 'all'}")
        selections.clear()
        return unpack(keys, words)

    def record_distinct(columns, run):
        """Run one DISTINCT, recording its forms and its last branch (with
        a packed one's word width and selection)."""
        before = len(branches)
        result = run()
        branch = branches[-1] if len(branches) > before else "empty"
        if branch.startswith("packed"):
            branch = f"{branch} {packings[-1]}"
        seen["distinct", key_form(columns), branch] += 1
        return result

    def distinct(columns):
        return record_distinct(columns, lambda: distinct_rows(columns))

    def blocked(keys, n_rows, blocks):
        return record_distinct([key.column for key in keys],
                               lambda: blocked_distinct(keys, n_rows, blocks))

    def grouping(self, key_columns):
        seen["group", key_form(key_columns), "sorted"] += 1
        return group_kernel(self, key_columns)

    def in_runs(key):
        starts = run_starts(key)
        if starts is not None:
            seen["group", key_form([key]), "runs"] += 1
        return starts

    def addressing(key):
        groups = direct_group_rows(key)
        if groups is not None:
            seen["group", key_form([key]), "direct"] += 1
        return groups

    class RecordedDomain(functions._EvaluatedDomain):
        __slots__ = ()

        def __init__(self, *args):
            seen["udf", "dictionary", ""] += 1
            super().__init__(*args)

    spark_join = SparkExecutor._dispatch_join
    spark_distinct = SparkExecutor._distinct_kernel
    spark_group = SparkExecutor._group_kernel

    def spark_joining(self, left_outer, left_keys, right_keys, *args):
        pair = spark_join(self, left_outer, left_keys, right_keys, *args)
        seen["join", f"{key_form(left_keys)} = {key_form(right_keys)}",
             f"{args[-1][-1]} -"] += 1
        return pair

    def spark_distinct_rows(self, columns):
        return record_distinct(
            columns, lambda: spark_distinct(self, columns))

    def spark_grouping(self, key_columns):
        seen["group", key_form(key_columns), "partitioned"] += 1
        return spark_group(self, key_columns)

    monkeypatch.setattr(operators, "_unpack", packing)
    monkeypatch.setattr(operators, "_pack_rows", selecting)
    monkeypatch.setattr(SparkExecutor, "_dispatch_join", spark_joining)
    monkeypatch.setattr(SparkExecutor, "_distinct_kernel",
                        spark_distinct_rows)
    monkeypatch.setattr(SparkExecutor, "_group_kernel", spark_grouping)
    monkeypatch.setattr(executor, "join_rows", joining)
    monkeypatch.setattr(executor, "distinct_rows", distinct)
    monkeypatch.setattr(executor, "packed_distinct", blocked)
    monkeypatch.setattr(executor.Executor, "_group_kernel", grouping)
    monkeypatch.setattr(executor, "run_starts", in_runs)
    monkeypatch.setattr(executor, "direct_group_rows", addressing)
    monkeypatch.setattr(functions, "_EvaluatedDomain", RecordedDomain)
    return seen


def run(factory, edges, database) -> Counter:
    """One configuration's ``(operator, forms, route)`` counts."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        seen = spy(monkeypatch)
        with database() as db:
            load_edges_into(db, "edges", edges)
            factory().run(db, "edges", seed=5)
    return seen


def report(name: str, seen: Counter) -> str:
    lines = [name]
    for (operator, forms, route), calls in sorted(seen.items()):
        lines.append(f"  {operator:<9} {forms:<22} {route:<26} {calls:>4}")
    return "\n".join(lines)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--only", default="",
                        help="keep configurations whose name contains this")
    args = parser.parse_args(argv)
    for name, factory, edges, database in _configurations():
        if args.only in name:
            print(report(name, run(factory, edges, database)),
                  flush=True)


if __name__ == "__main__":
    main()
