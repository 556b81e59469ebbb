"""Tests for the Spark SQL comparison backend (Section VII-C)."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro import connected_components
from repro.core import RandomisedContraction
from repro.graphs import (
    gnm_random_graph,
    load_edges_into,
    path_graph,
    streets_like_graph,
)
from repro.spark import SparkSQLDatabase
from repro.spark.engine import SparkExecutor, _partition_ids
from repro.sqlengine import Database
from repro.sqlengine.operators import (
    NO_MATCH,
    distinct_rows,
    join_indices,
    left_join_indices,
)
from repro.sqlengine.types import Column

from .conftest import edge_lists
from .test_whole_loop_differential import (
    BASELINE_GRAPHS,
    _assert_teed_run_labels_like_union_find,
)


def test_spark_join_group_by_matches_mpp_above_task_threshold():
    """Regression: the Spark model's partitioned join emits partition-major
    (non-monotone) left indices; a GROUP BY over it once silently
    mislabelled groups by assuming ascending left rows."""
    rng = np.random.default_rng(8)
    n = 3000  # far above n_tasks * 4, so the partitioned join kernel engages
    groups = rng.integers(0, 40, n)
    keys = rng.integers(0, 500, n)
    weights = rng.integers(0, 99, 500)
    mpp = Database()
    spark = SparkSQLDatabase()
    for db in (mpp, spark):
        db.load_table("t", {"g": groups, "k": keys})
        db.load_table("u", {"k": np.arange(500, dtype=np.int64),
                            "b": weights})
    q = ("select t.g, count(*) c, sum(u.b) s, min(u.b) lo "
         "from t, u where t.k = u.k group by t.g")
    assert sorted(mpp.execute(q).rows()) == sorted(spark.execute(q).rows())


def test_same_sql_same_answers():
    sql = """
        create table doubled as
        select v1, v2 from g union all select v2, v1 from g
        distributed by (v1)
    """
    edges = gnm_random_graph(200, 300, np.random.default_rng(0))
    mpp = Database()
    spark = SparkSQLDatabase()
    from repro.graphs import load_edges_into

    for db in (mpp, spark):
        load_edges_into(db, "g", edges)
        db.execute(sql)
    query = "select v1, count(*) from doubled group by v1"
    assert sorted(mpp.execute(query).rows()) == sorted(spark.execute(query).rows())


@given(edge_lists(max_vertices=16, max_edges=24))
@settings(max_examples=10)
def test_algorithms_agree_across_backends(edges):
    mpp = connected_components(edges, "rc", seed=4, validate=True)
    spark = connected_components(edges, "rc", seed=4,
                                 db=SparkSQLDatabase(), validate=True)
    assert mpp.n_components == spark.n_components


@pytest.mark.parametrize("variant", ["fast", "deterministic-space"])
@pytest.mark.parametrize("graph", ["gnm", "path"])
def test_spark_loop_equals_sqlite_statement_by_statement(variant, graph):
    """The whole Spark-model loop — partitioned kernels, no index cache,
    no encoded columns — teed to sqlite: every table a round writes holds
    sqlite's rows, and every non-DROP statement was compared."""
    _assert_teed_run_labels_like_union_find(
        RandomisedContraction(variant=variant), BASELINE_GRAPHS[graph](),
        database=SparkSQLDatabase)


def test_spark_charges_more_motion():
    edges = path_graph(5000)
    mpp = connected_components(edges, "rc", seed=1)
    spark = connected_components(edges, "rc", seed=1, db=SparkSQLDatabase())
    assert spark.run.stats.motion_bytes > mpp.run.stats.motion_bytes


def test_spark_launches_tasks():
    spark = SparkSQLDatabase(n_tasks=16)
    edges = path_graph(3000)
    connected_components(edges, "rc", seed=1, db=spark)
    assert spark.tasks_launched > 50


def test_spark_model_keeps_no_index(monkeypatch):
    """Spark SQL keeps no table indexes: an RC run on the model never asks
    a table for one, so no table caches one and the index-cache counters
    stay 0 — where the database's own run of the input fills them."""
    from repro.sqlengine.table import Table

    asked = []
    index_for = Table.index_for

    def recording(table, column_name):
        asked.append((table.name, column_name))
        return index_for(table, column_name)

    monkeypatch.setattr(Table, "index_for", recording)
    edges = gnm_random_graph(400, 600, np.random.default_rng(6))
    spark = SparkSQLDatabase(n_tasks=8)
    connected_components(edges, "rc", seed=1, db=spark)
    assert asked == []
    assert spark.stats.index_cache_hits == spark.stats.index_cache_misses == 0
    db = Database()
    connected_components(edges, "rc", seed=1, db=db)
    assert asked and db.stats.index_cache_misses > 0


def test_one_task_model_runs_each_keyed_operator_as_one_task(monkeypatch):
    """With one task the model takes its whole-column branch: every join,
    GROUP BY and DISTINCT launches exactly one task — no key is hashed
    into a partition that holds every row, and no DISTINCT runs twice —
    and the labels and motion bytes are the 64-task run's.  Neither runs
    a fused DISTINCT's block loop: every DISTINCT is a kernel call over
    the filtered columns."""
    import repro.spark.engine as engine_module
    import repro.sqlengine.executor as executor_module

    kernels = ("_dispatch_join", "_group_kernel", "_distinct_kernel")
    calls = dict.fromkeys(
        kernels + ("distinct_rows", "_partitions", "packed_distinct"), 0)
    for name in kernels:
        def counting(self, *args, _name=name,
                     _real=getattr(SparkExecutor, name)):
            calls[_name] += 1
            return _real(self, *args)

        monkeypatch.setattr(SparkExecutor, name, counting)
    real_partitions = SparkExecutor._partitions
    real_distinct = engine_module.distinct_rows

    def partitions(self, key):
        calls["_partitions"] += 1
        return real_partitions(self, key)

    def distinct(*args):
        calls["distinct_rows"] += 1
        return real_distinct(*args)

    real_blocks = executor_module.packed_distinct

    def blocks(*args):
        calls["packed_distinct"] += 1
        return real_blocks(*args)

    monkeypatch.setattr(SparkExecutor, "_partitions", partitions)
    monkeypatch.setattr(engine_module, "distinct_rows", distinct)
    monkeypatch.setattr(executor_module, "packed_distinct", blocks)
    edges = gnm_random_graph(2000, 4000, np.random.default_rng(3))
    runs = {}
    for n_tasks in (1, 64):
        for key in calls:
            calls[key] = 0
        db = SparkSQLDatabase(n_tasks=n_tasks)
        load_edges_into(db, "edges", edges)
        result = RandomisedContraction().run(db, "edges", seed=5)
        vertices, labels = result.labels(db)
        order = np.argsort(vertices)
        runs[n_tasks] = (vertices[order].tolist(), labels[order].tolist(),
                         db.stats.motion_bytes)
        operators = sum(calls[name] for name in kernels)
        assert all(calls[name] for name in kernels), calls
        assert calls["packed_distinct"] == 0
        if n_tasks == 1:
            assert db.tasks_launched == operators
            assert calls["_partitions"] == 0
            assert calls["distinct_rows"] == calls["_distinct_kernel"]
        else:
            assert db.tasks_launched > operators
            assert calls["_partitions"] > 0
    assert runs[1] == runs[64]


def test_partition_ids_cover_all_tasks():
    column = Column.from_values(np.arange(10_000, dtype=np.int64))
    parts = _partition_ids(column, 16)
    assert set(parts.tolist()) == set(range(16))


def test_partition_ids_send_nulls_to_task_zero():
    column = Column.from_values(np.array([1, 2, 3], dtype=np.int64),
                                mask=np.array([False, True, False]))
    parts = _partition_ids(column, 8)
    assert parts[1] == 0


def make_spark_executor(n_tasks=8):
    db = SparkSQLDatabase(n_tasks=n_tasks)
    return db._executor


def int_column(values):
    return Column.from_values(np.asarray(values, dtype=np.int64))


def test_partitioned_join_matches_plain_join():
    rng = np.random.default_rng(3)
    left = int_column(rng.integers(0, 200, size=2000))
    right = int_column(rng.integers(0, 200, size=1500))
    expected = sorted(zip(*[arr.tolist() for arr in
                            join_indices([left], [right])]))
    executor = make_spark_executor()
    got = sorted(zip(*[arr.tolist() for arr in
                       executor._dispatch_join(False, [left], [right],
                                               None, [], [])]))
    assert got == expected


def test_partitioned_left_join_matches_plain():
    rng = np.random.default_rng(4)
    left = int_column(rng.integers(0, 100, size=1200))
    right = int_column(rng.integers(50, 150, size=900))
    expected = sorted(zip(*[arr.tolist() for arr in
                            left_join_indices([left], [right])]))
    executor = make_spark_executor()
    got = sorted(zip(*[arr.tolist() for arr in
                       executor._dispatch_join(True, [left], [right],
                                               None, [], [])]))
    assert got == expected


def test_partitioned_group_covers_all_rows():
    rng = np.random.default_rng(5)
    keys = int_column(rng.integers(0, 50, size=3000))
    executor = make_spark_executor()
    order, starts = executor._group_kernel([keys])
    assert sorted(order.tolist()) == list(range(3000))
    # Group count must match the number of distinct keys.
    assert starts.shape[0] == len(set(keys.values.tolist()))


def test_partitioned_distinct_matches_plain():
    """Task by task, then merged: the partitioned DISTINCT is the plain
    kernel's, row for row — in key order — over every row and over the
    rows a WHERE kept."""
    rng = np.random.default_rng(6)
    a = int_column(rng.integers(0, 30, size=2500))
    b = int_column(rng.integers(-(2 ** 62), 2 ** 62, size=30)[
        rng.integers(0, 30, size=2500)])
    executor = make_spark_executor()
    kept = np.arange(0, 2500, 3)
    for columns in ([a, b], [a.take(kept), b.take(kept)]):
        tasks = executor.tasks_launched
        got = executor._distinct_kernel(columns)
        assert executor.tasks_launched > tasks + 1
        expected = distinct_rows(columns)
        assert [col.to_list() for col in got] == \
            [col.to_list() for col in expected]


def test_section_viic_shape_spark_is_slower():
    """The qualitative VII-C result, by what defines the Spark model: the
    same SQL (statement for statement) and the same components, executed
    as many small tasks that shuffle every keyed operator's whole input —
    more bytes in motion than the co-location-aware MPP run.

    Uses the streets dataset (the comparison graph of the paper's VII-C);
    the runtime ratio those costs buy is measured, with repetitions, by
    ``benchmarks/test_bench_spark_vs_db.py``."""
    edges = streets_like_graph(80, 80)
    mpp = connected_components(edges, "rc", seed=2)
    spark_db = SparkSQLDatabase()
    spark = connected_components(edges, "rc", seed=2, db=spark_db)
    assert spark.n_components == mpp.n_components
    assert spark.run.sql_queries == mpp.run.sql_queries
    # At least one task per statement, and many for the big early rounds.
    assert spark_db.tasks_launched > spark.run.sql_queries
    assert spark.run.stats.motion_bytes > mpp.run.stats.motion_bytes
