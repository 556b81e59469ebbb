"""Tests for the engine's caching layer.

Covers the two caches the hot path relies on:

* the **plan/statement cache** (template-normalised parsed ASTs),
* the **table-level index cache** (versioned per-column sorted indexes),

plus the acceptance-level integration: a full Randomised Contraction run
must populate both caches while every table it writes holds the rows stdlib
sqlite computes for the same statement (``tests/sqlite_oracle.py``).
"""

import numpy as np
import pytest

from repro.core import RandomisedContraction
from repro.core.unionfind import unionfind_labels
from repro.graphs import gnm_random_graph
from repro.graphs.io import load_edges_into
from repro.sqlengine import Database, operators
from repro.sqlengine.parser import parse_statement
from repro.sqlengine.plancache import PlanCache, normalize_statement

from .sqlite_oracle import tee


# ---------------------------------------------------------------------------
# plan cache
# ---------------------------------------------------------------------------


def test_normalize_parameterises_integers_and_name_suffixes():
    template, params = normalize_statement(
        "create table ccreps3 as select v1 v, axplusb(v2, 123, 45) r "
        "from ccgraph where v1 != 9"
    )
    assert params == ["3", "1", "2", "123", "45", "1", "9"]
    assert "ccreps$0" in template
    assert "$3" in template and "$4" in template
    # Floats and mid-identifier digits stay literal.
    t2, p2 = normalize_statement("select 1.5, 2e5, x2y from t12")
    assert "1.5" in t2 and "2e5" in t2 and "x2y" in t2
    assert p2 == ["12"]


def test_plan_cache_hits_across_table_suffixes_and_constants():
    cache = PlanCache()
    first, hit1, _ = cache.entry_for(
        "create table r7 as select v1, 10 c from g7 where v1 != 3"
    )
    second, hit2, _ = cache.entry_for(
        "create table r8 as select v1, 99 c from g8 where v1 != 5"
    )
    assert not hit1 and hit2
    # The patched template must equal a from-scratch parse.
    assert second == parse_statement(
        "create table r8 as select v1, 99 c from g8 where v1 != 5"
    )


def test_plan_cache_statements_execute_correctly(db):
    db.execute("create table t1 (v int64, w int64)")
    db.execute("insert into t1 values (1, 10), (2, 20)")
    db.execute("create table t2 (v int64, w int64)")
    db.execute("insert into t2 values (3, 30), (4, 40)")
    first = db.execute("select w from t1 where v = 2").scalar()
    second = db.execute("select w from t2 where v = 4").scalar()
    assert (first, second) == (20, 40)
    assert db.stats.plan_cache_hits >= 2  # the insert + select templates


def test_plan_cache_falls_back_on_uncacheable_sql(db):
    db.execute("create table t (v int64)")
    db.execute("insert into t values (7)")
    # Comments and "$" bypass the template machinery entirely.
    assert db.execute("select v from t -- trailing comment\n").scalar() == 7
    before = len(db._plans)
    db.execute("select v /* block */ from t")
    assert len(db._plans) == before
    # Digits inside string literals are not parameterised.
    db.execute("create table s (name text)")
    db.execute("insert into s values ('agent 47')")
    assert db.execute("select name from s").scalar() == "agent 47"


def test_dollar_placeholders_are_template_only(db):
    """User SQL can never smuggle a template placeholder into the engine."""
    from repro.sqlengine.errors import ParseError

    db.execute("create table t (v int64)")
    db.execute("insert into t values (1)")
    for bad in ["select $0 from t", "select x$3 from t"]:
        with pytest.raises(ParseError):
            db.execute(bad)


def test_plan_cache_is_bounded():
    cache = PlanCache(max_entries=8)
    for i in range(50):
        # Distinct templates: the column alias varies structurally.
        cache.entry_for(f"select 1 a{'x' * (i % 25)} from t")
    assert len(cache) <= 8


def test_plan_cache_repeated_hits_reuse_one_entry():
    cache = PlanCache()
    results = []
    for i in range(5):
        statement, hit, _ = cache.entry_for(f"select {i} from t{i}")
        results.append((statement, hit))
    assert [hit for _, hit in results] == [False, True, True, True, True]
    assert len(cache) == 1


# ---------------------------------------------------------------------------
# table index cache
# ---------------------------------------------------------------------------


def test_index_cache_hit_and_build(db):
    db.execute("create table t (v int64)")
    db.execute("insert into t values (3), (1), (2)")
    table = db.table("t")
    assert table.cached_index("v") is None
    index = table.ensure_index("v")
    assert index is not None and index.is_unique
    assert table.cached_index("v") is index
    assert table.ensure_index("v") is index


def test_index_cache_invalidated_by_append(db):
    db.execute("create table t (v int64)")
    db.execute("insert into t values (3), (1)")
    table = db.table("t")
    stale = table.ensure_index("v")
    db.execute("insert into t values (2)")
    assert table.cached_index("v") is None  # version moved on
    fresh = table.ensure_index("v")
    assert fresh is not stale
    assert fresh.n_rows == 3
    assert (fresh.min_value, fresh.max_value) == (1, 3)


def test_index_cache_invalidated_by_truncate(db):
    db.execute("create table t (v int64)")
    db.execute("insert into t values (5)")
    table = db.table("t")
    table.ensure_index("v")
    db.execute("truncate table t")
    assert table.cached_index("v") is None
    assert table.n_rows == 0


def test_stale_index_never_serves_a_join(db):
    """Append between two identical joins: the second must see the new row."""
    db.execute("create table r (v int64, rep int64)")
    db.execute("insert into r values (1, 10), (2, 20)")
    db.execute("create table e (v int64)")
    db.execute("insert into e values (1), (2), (3)")
    q = "select e.v, r.rep from e, r where e.v = r.v"
    assert len(db.execute(q).rows()) == 2
    db.execute("insert into r values (3, 30)")
    rows = sorted(db.execute(q).rows())
    assert rows == [(1, 10), (2, 20), (3, 30)]


def test_unindexable_columns_return_none(db):
    db.execute("create table t (name text, v int64)")
    db.execute("insert into t values ('a', 1)")
    table = db.table("t")
    assert table.ensure_index("name") is None
    db.execute("insert into t values ('b', null)")
    assert table.ensure_index("v") is None  # NULL-bearing column


def test_dense_index_defers_its_sort(db):
    """Dense-key columns get O(n) stats only; the argsort that the
    direct-address join never consumes must not be paid up front."""
    values = np.random.default_rng(0).permutation(10_000).astype(np.int64)
    db.load_table("t", {"v": values})
    index = db.table("t").ensure_index("v")
    assert index.is_unique and (index.min_value, index.max_value) == (0, 9_999)
    assert index._order is None  # not materialised by stats-only consumers
    # First consumer that needs the order materialises it correctly.
    assert np.array_equal(index.order, np.argsort(values, kind="stable"))
    assert index._order is not None


def test_disjoint_range_join_motion_independent_of_index_cache():
    """Disjoint key ranges: the join matches nothing, and the motion
    charged for it is the stats-blind planner's — the same whether or not
    an earlier statement happened to warm the probe side's index."""
    n = 5000  # large enough that the planner redistributes, not broadcasts

    def join_motion(query, n_rows, warm_probe_index: bool) -> int:
        db = Database(n_segments=4)
        db.load_table("lo", {"v": np.arange(n, dtype=np.int64)})
        db.load_table("hi", {"v": np.arange(n, dtype=np.int64) + 10 ** 12,
                             "w": np.ones(n, dtype=np.int64)})
        if warm_probe_index:
            # The probe side's index is never built speculatively; an
            # earlier keyed operation (a GROUP BY, as in the contraction
            # rounds) warms it.
            db.execute("select v, count(*) c from lo group by v")
        before = db.stats.motion_bytes
        assert db.execute(query).scalar() == n_rows
        return db.stats.motion_bytes - before

    for query, n_rows in [
        ("select count(*) from lo, hi where lo.v = hi.v", 0),
        # An outer join null-extends every probe row.
        ("select count(*) from lo left join hi on (lo.v = hi.v) "
         "where hi.w is null", n),
    ]:
        assert (join_motion(query, n_rows, True)
                == join_motion(query, n_rows, False) > 0)


@pytest.mark.parametrize("warm_probe_index", [True, False])
def test_probe_side_index_is_neither_read_nor_built(warm_probe_index):
    """``relabel-src`` joins ``graph.v1 = reps.v`` right after the ``reps``
    GROUP BY indexed ``graph.v1``: the join builds the build side's index
    and leaves the probe side's alone, cached or not — a probe side is
    searched as it lies, and its index has nothing a route reads."""
    rng = np.random.default_rng(4)
    n = 3 * operators.CACHE_KERNEL_MIN_ROWS
    v1 = rng.integers(-(2 ** 62), 2 ** 62, n // 3)[rng.integers(0, n // 3, n)]
    reps = np.unique(v1)

    db = tee(Database(n_segments=4))
    db.load_table("graph", {"v1": v1, "v2": np.arange(n)})
    db.load_table("reps", {"v": reps, "rep": -np.arange(reps.shape[0])})
    if warm_probe_index:
        db.execute("select v1, count(*) c from graph group by v1")
    before = db.stats.snapshot()
    # Teed: the join's rows are sqlite's.
    db.execute("select r1.rep as v1, v2 from graph, reps as r1 "
               "where graph.v1 = r1.v")
    delta = db.stats.snapshot().delta(before)
    assert delta.index_cache_misses == 1
    assert delta.index_cache_hits == 0
    assert db.table("reps").cached_index("v") is not None
    assert (db.table("graph").cached_index("v1") is not None) \
        == warm_probe_index


# ---------------------------------------------------------------------------
# integration: Randomised Contraction end-to-end
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("variant", ["fast", "deterministic-space"])
def test_randomised_contraction_exercises_caches(variant):
    edges = gnm_random_graph(600, 1100, np.random.default_rng(11))

    # Teed: sqlite referees every table the run writes.
    db = tee(Database(n_segments=4))
    load_edges_into(db, "edges", edges)
    result = RandomisedContraction(variant=variant).run(db, "edges", seed=5)
    vertices, labels = result.labels(db)
    # Acceptance: caches must actually engage during the run.
    assert result.stats.plan_cache_hits > 0
    assert result.stats.index_cache_hits > 0
    # And the labelling partitions vertices exactly like union-find does.
    truth = unionfind_labels(edges)
    by_vertex = dict(zip(vertices.tolist(), labels.tolist()))
    assert set(by_vertex) == set(truth)
    grouped: dict[int, set[int]] = {}
    for vertex, label in by_vertex.items():
        grouped.setdefault(label, set()).add(vertex)
    truth_grouped: dict[int, set[int]] = {}
    for vertex, label in truth.items():
        truth_grouped.setdefault(label, set()).add(vertex)
    assert sorted(map(sorted, grouped.values())) == \
        sorted(map(sorted, truth_grouped.values()))
