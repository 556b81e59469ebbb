"""End-to-end SELECT execution tests against the engine."""

import numpy as np
import pytest

from repro.sqlengine import Database, PlanError


@pytest.fixture()
def db():
    database = Database()
    database.load_table(
        "e",
        {
            "v1": np.array([1, 1, 2, 3, 3], dtype=np.int64),
            "v2": np.array([2, 3, 3, 4, 5], dtype=np.int64),
        },
        distributed_by="v1",
    )
    database.load_table(
        "names",
        {
            "v": np.array([1, 2, 3], dtype=np.int64),
            "w": np.array([10, 20, 30], dtype=np.int64),
        },
        distributed_by="v",
    )
    return database


def test_projection_and_alias(db):
    result = db.execute("select v1 as a, v2 b from e")
    assert result.names == ["a", "b"]
    assert len(result.rows()) == 5


def test_star_select(db):
    result = db.execute("select * from names")
    assert result.names == ["v", "w"]
    assert sorted(result.rows()) == [(1, 10), (2, 20), (3, 30)]


def test_filter_pushdown_result(db):
    rows = db.execute("select v1, v2 from e where v1 = 3").rows()
    assert sorted(rows) == [(3, 4), (3, 5)]


def test_two_table_join_via_where(db):
    rows = db.execute(
        "select e.v1, names.w from e, names where e.v2 = names.v"
    ).rows()
    assert sorted(rows) == [(1, 20), (1, 30), (2, 30)]


def test_three_table_join(db):
    rows = db.execute(
        """
        select e.v1, a.w, b.w
        from e, names as a, names as b
        where e.v1 = a.v and e.v2 = b.v
        """
    ).rows()
    assert sorted(rows) == [(1, 10, 20), (1, 10, 30), (2, 20, 30)]


def test_join_with_residual_inequality(db):
    rows = db.execute(
        "select e.v1, names.v from e, names where e.v1 = names.v and e.v2 != 3"
    ).rows()
    assert sorted(rows) == [(1, 1), (3, 3), (3, 3)]


def test_left_outer_join_nulls(db):
    rows = db.execute(
        """
        select e.v2 as v, names.w as w
        from e left outer join names on (e.v2 = names.v)
        """
    ).rows()
    got = sorted(rows)
    assert (4, None) in got and (5, None) in got
    assert (2, 20) in got and (3, 30) in got


def test_left_join_then_is_null_filter(db):
    rows = db.execute(
        """
        select e.v2 from e left outer join names on (e.v2 = names.v)
        where names.v is null
        """
    ).rows()
    assert sorted(r[0] for r in rows) == [4, 5]


def test_left_join_without_an_equality_edge_is_rejected():
    """A LEFT JOIN needs one condition equating a column of the joined
    table with an earlier one."""
    db = Database()
    for name in ("a", "r"):
        db.load_table(name, {"k": np.arange(3, dtype=np.int64),
                             "v": np.arange(3, dtype=np.int64)})
    with pytest.raises(PlanError,
                       match="LEFT JOIN requires at least one equality"):
        db.execute("select a.k from a left join r on (r.v > 1)")


def test_left_join_condition_between_earlier_tables_is_rejected():
    """Every LEFT JOIN condition is an equi-join edge into the joined
    table: one between two earlier tables is refused, and the message
    says so rather than calling the equality a non-equality."""
    db = Database()
    for name in ("a", "b", "r"):
        db.load_table(name, {"k": np.arange(3, dtype=np.int64),
                             "x": np.arange(3, dtype=np.int64),
                             "y": np.arange(3, dtype=np.int64),
                             "v": np.arange(3, dtype=np.int64)})
    queries = [
        "select a.k from a join b on (a.k = b.k) "
        "left join r on (a.x = b.y and a.k = r.v)",
        "select a.k from a left join r on (a.k = r.v and r.x > 1)",
    ]
    for query in queries:
        with pytest.raises(PlanError, match=(
                "each LEFT JOIN condition must equate a column of 'r' "
                "with a column of an earlier table")):
            db.execute(query)


def test_group_by_min_max(db):
    rows = db.execute(
        "select v1, min(v2), max(v2) from e group by v1"
    ).rows()
    assert sorted(rows) == [(1, 2, 3), (2, 3, 3), (3, 4, 5)]


def test_group_by_with_expression_over_aggregate(db):
    rows = db.execute(
        "select v1, least(v1, min(v2)) as m from e group by v1"
    ).rows()
    assert sorted(rows) == [(1, 1), (2, 2), (3, 3)]


def test_count_star_and_count_column():
    db = Database()
    db.execute("create table t (a int, b int)")
    db.execute("insert into t values (1, null), (1, 2), (2, 3)")
    rows = db.execute("select a, count(*), count(b) from t group by a").rows()
    assert sorted(rows) == [(1, 2, 1), (2, 1, 1)]


def test_global_aggregate_without_group_by(db):
    assert db.execute("select count(*) from e").scalar() == 5
    assert db.execute("select min(v2) from e").scalar() == 2
    assert db.execute("select sum(v1) from e").scalar() == 10
    assert db.execute("select avg(v1) from e").scalar() == pytest.approx(2.0)


def test_global_aggregate_on_empty_table():
    db = Database()
    db.execute("create table t (a int)")
    assert db.execute("select count(*) from t").scalar() == 0
    assert db.execute("select min(a) from t").scalar() is None


def test_count_distinct(db):
    assert db.execute("select count(distinct v1) from e").scalar() == 3
    rows = db.execute(
        "select v1, count(distinct v2) from e group by v1"
    ).rows()
    assert sorted(rows) == [(1, 2), (2, 1), (3, 2)]


def test_count_distinct_counts_null_key_groups():
    """A group whose key is (or contains) NULL is a group like any other
    (sqlite and PostgreSQL count it; aligning groups by key value would
    not, since NULL keys never match)."""
    db = Database()
    db.execute("create table t (g int64, v int64)")
    db.execute("insert into t values (null,6),(null,6),(1,3),(1,4),(null,7)")
    rows = db.execute("select g, count(distinct v) from t group by g").rows()
    assert sorted(rows, key=repr) == [(1, 2), (None, 2)]
    db.execute("create table u (a int64, b int64, v int64)")
    db.execute("insert into u values (null,1,6), (null,1,7), (1,null,3), "
               "(1,null,3), (1,2,null), (null,null,5)")
    rows = db.execute(
        "select a, b, count(distinct v) from u group by a, b").rows()
    assert sorted(rows, key=repr) == [
        (1, 2, 0), (1, None, 1), (None, 1, 2), (None, None, 1)]


def test_aggregate_ignores_nulls():
    db = Database()
    db.execute("create table t (a int, b int)")
    db.execute("insert into t values (1, null), (1, 5), (1, 3)")
    rows = db.execute("select a, min(b), sum(b) from t group by a").rows()
    assert rows == [(1, 3, 8)]


def test_non_grouped_column_rejected(db):
    for sql in (
        "select v1, v2 from e group by v1",
        "select v1, coalesce(v2, 0) c from e group by v1",
        "select v1, case when v2 > 0 then 1 else 0 end c from e group by v1",
        "select v1, case when v1 > 0 then v2 end c from e group by v1",
        "select v1, case when v1 > 0 then 1 else v2 end c from e group by v1",
    ):
        with pytest.raises(PlanError, match="'v2' must appear in GROUP BY"):
            db.execute(sql)
    for sql, message in (
        ("select v1 + 1 k, count(*) c from e group by v1 + 1",
         "GROUP BY supports plain column references only"),
        ("select * from e group by v1",
         "'\\*' cannot be combined with GROUP BY"),
        ("select v1, v2 from e group by v1",
         "'v2' must appear in GROUP BY"),
    ):
        with pytest.raises(PlanError, match=message):
            db.execute(sql)
        # A rejected CREATE TABLE AS leaves no table behind.
        with pytest.raises(PlanError, match=message):
            db.execute(f"create table rejected as {sql}")
        assert "rejected" not in db.catalog


def test_distinct(db):
    rows = db.execute("select distinct v1 from e").rows()
    assert sorted(r[0] for r in rows) == [1, 2, 3]


def test_distinct_keeps_repeated_display_names(db):
    """Two projected columns of one name keep it under DISTINCT, as they
    do without it and as sqlite reports them."""
    sql = "select{} a.v1, b.v1 from e a, e b where a.v1 = b.v1"
    for distinct in ("", " distinct"):
        relation = db.execute(sql.format(distinct)).relation
        assert relation.display_names == ["v1", "v1"]
    assert db.execute(sql.format(" distinct")).rows() == \
        [(1, 1), (2, 2), (3, 3)]


def test_distinct_ctas_refuses_duplicate_column_names(db):
    """CREATE TABLE AS over a DISTINCT with a repeated name fails like the
    same statement without DISTINCT, instead of storing a renamed
    column."""
    for distinct in ("", "distinct "):
        with pytest.raises(PlanError, match="duplicate column names"):
            db.execute(f"create table v as select {distinct}a.v1, b.v1 "
                       f"from e a, e b where a.v1 = b.v1")
        assert "v" not in db.catalog


def test_null_text_groups_whatever_their_storage_holds():
    """A stored LEFT JOIN output keeps other rows' text under its NULLs:
    they are one NULL all the same, for DISTINCT and GROUP BY alike."""
    from .sqlite_oracle import tee

    with tee(Database()) as db:
        db.execute("create table s (k int64, s text)")
        db.execute("insert into s values (1, 'b'), (2, null), (3, 'a'), "
                   "(4, null), (5, 'c')")
        db.execute("create table t (k int64, x int64)")
        db.execute("insert into t values (1, 0), (7, 1), (3, 0), (9, 0), "
                   "(2, 1), (4, 0), (8, 0)")
        db.execute("create table u as select s.s s, t.x x from t "
                   "left join s on (t.k = s.k)")
        stored = db.table("u").column("s")
        assert len(set(stored.values[stored.mask].tolist())) > 1
        compared = db.oracle.compared
        assert db.execute("select distinct s, x from u").rows() == \
            [("a", 0), ("b", 0), (None, 0), (None, 1)]
        db.execute("select s, x, count(*) from u group by s, x")
        assert db.oracle.compared == compared + 2


def test_union_all(db):
    result = db.execute(
        "select v1, v2 from e union all select v2, v1 from e"
    )
    assert result.rowcount == 10


def test_union_all_column_count_mismatch(db):
    with pytest.raises(PlanError, match="UNION ALL"):
        db.execute("select v1 from e union all select v1, v2 from e")


def test_union_all_arity_checked_before_any_arm_runs(db):
    """The arity check fires at compile time: no arm executes — not even
    the well-formed first one — when a later arm's width mismatches."""
    calls = {"n": 0}

    def probe(values):
        calls["n"] += 1
        return values

    db.create_function("probe", probe)
    with pytest.raises(PlanError, match="UNION ALL"):
        db.execute("select probe(v1) from e union all select v1, v2 from e")
    assert calls["n"] == 0


_UNION_SQL = ("select v1 a, v2 b from e where v1 != 2 "
              "union all select v2, v1 from e "
              "union all select v1 + 10, v2 - 1 from e where v2 > 3")


def test_union_all_is_its_arms_in_arm_order():
    """UNION ALL arms run in arm order: the output is the exact
    concatenation of the arms run on their own, and the motion charged is
    theirs."""
    database = Database(n_segments=4)
    rng = np.random.default_rng(17)
    database.load_table("e", {
        "v1": rng.integers(0, 40, 500),
        "v2": rng.integers(0, 40, 500),
    }, distributed_by="v1")
    arms = _UNION_SQL.split(" union all ")
    expected, motion = [], 0
    for arm in arms:
        before = database.stats.motion_bytes
        expected += database.execute(arm).rows()
        motion += database.stats.motion_bytes - before
    before = database.stats.motion_bytes
    got = database.execute(_UNION_SQL)
    assert database.stats.motion_bytes - before == motion
    assert got.names == database.execute(arms[0]).names
    assert got.rows() == expected  # exact order: arm by arm


def test_union_arm_error_surfaces():
    """A failing arm's error propagates out of the statement."""
    db = Database(n_segments=4)
    db.load_table("e", {"v1": np.arange(20, dtype=np.int64),
                        "v2": np.arange(20, dtype=np.int64)},
                  distributed_by="v1")

    def boom(values):
        raise ValueError("arm exploded")

    db.create_function("boom", boom)
    with pytest.raises(Exception, match="arm exploded"):
        db.execute("select v1 from e union all select boom(v1) from e "
                   "union all select v2 from e")
    db.close()


def test_union_stored_and_nested_in_an_arm():
    """A UNION ALL stored by CREATE TABLE AS completes, and so does a
    UNION subquery nested in a UNION arm."""
    db = Database(n_segments=2)
    db.load_table("e", {"v1": np.arange(50, dtype=np.int64),
                        "v2": np.arange(50, dtype=np.int64)},
                  distributed_by="v1")
    db.execute("create table u as select v1 a from e union all "
               "select v2 from e")
    assert db.table("u").n_rows == 100
    rows = db.execute(
        "select s.a from (select v1 a from e union all select v2 a from e) "
        "as s union all select v1 from e").rowcount
    assert rows == 150
    db.close()


def test_subquery_in_from(db):
    rows = db.execute(
        """
        select q.m from (select v1, min(v2) as m from e group by v1) as q
        where q.m > 2
        """
    ).rows()
    assert sorted(r[0] for r in rows) == [3, 4]


def test_subquery_join_with_base_table(db):
    rows = db.execute(
        """
        select n.w
        from (select distinct v1 from e) as q, names as n
        where q.v1 = n.v
        """
    ).rows()
    assert sorted(r[0] for r in rows) == [10, 20, 30]


def test_select_without_from():
    db = Database()
    assert db.execute("select 1 + 1").scalar() == 2


def test_ambiguous_bare_column_raises(db):
    with pytest.raises(PlanError, match="ambiguous"):
        db.execute("select v from names as a, names as b where a.v = b.v")


def test_unknown_table_raises(db):
    with pytest.raises(Exception, match="unknown table"):
        db.execute("select 1 from missing")


def test_duplicate_binding_rejected(db):
    with pytest.raises(PlanError, match="duplicate"):
        db.execute("select 1 from e, e")


def test_small_cartesian_allowed():
    db = Database()
    db.execute("create table a (x int)")
    db.execute("create table b (y int)")
    db.execute("insert into a values (1), (2)")
    db.execute("insert into b values (10), (20)")
    rows = db.execute("select x, y from a, b").rows()
    assert len(rows) == 4


def test_huge_cartesian_rejected(db):
    db.load_table("big1", {"x": np.arange(3000, dtype=np.int64)})
    db.load_table("big2", {"y": np.arange(3000, dtype=np.int64)})
    with pytest.raises(PlanError, match="cartesian"):
        db.execute("select x, y from big1, big2")


def test_self_join_with_aliases(db):
    rows = db.execute(
        """
        select a.v1, b.v2
        from e as a, e as b
        where a.v2 = b.v1 and a.v1 != b.v2
        """
    ).rows()
    assert (1, 3) in rows  # 1-2 joined with 2-3


def test_join_edge_between_already_joined_tables_becomes_filter(db):
    # Both predicates reference the same pair; the second must filter.
    rows = db.execute(
        "select e.v1 from e, names where e.v1 = names.v and e.v2 = names.w"
    ).rows()
    assert rows == []
