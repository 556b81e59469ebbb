"""DDL/DML execution tests: create, insert, drop, rename, truncate."""

import numpy as np
import pytest

from repro.sqlengine import CatalogError, Database, PlanError


def test_create_table_as_returns_rowcount():
    db = Database()
    db.execute("create table a (x int)")
    db.execute("insert into a values (1), (2), (3)")
    result = db.execute("create table b as select x from a where x > 1")
    assert result.rowcount == 2
    assert db.table("b").n_rows == 2


def test_create_table_as_distribution_column_recorded():
    db = Database()
    db.execute("create table a (x int, y int)")
    db.execute("insert into a values (1, 2)")
    db.execute("create table b as select x, y from a distributed by (y)")
    assert db.table("b").distribution_column == "y"


def test_create_table_as_rejects_unknown_distribution_column():
    db = Database()
    db.execute("create table a (x int)")
    with pytest.raises(PlanError, match="not in the select list"):
        db.execute("create table b as select x from a distributed by (nope)")


def test_create_table_as_rejects_duplicate_columns():
    db = Database()
    db.execute("create table a (x int)")
    db.execute("insert into a values (1)")
    with pytest.raises(PlanError, match="[Dd]uplicate"):
        db.execute("create table b as select x, x from a")


def test_create_existing_table_rejected():
    db = Database()
    db.execute("create table a (x int)")
    with pytest.raises(CatalogError, match="already exists"):
        db.execute("create table a (y int)")


def test_insert_values_and_nulls():
    db = Database()
    db.execute("create table t (a int, b int)")
    assert db.execute("insert into t values (1, 2), (3, null)").rowcount == 2
    rows = db.execute("select a, b from t").rows()
    assert sorted(rows, key=str) == [(1, 2), (3, None)]


def test_insert_select():
    db = Database()
    db.execute("create table src (a int)")
    db.execute("insert into src values (1), (2)")
    db.execute("create table dst (a int)")
    assert db.execute("insert into dst select a from src").rowcount == 2
    assert db.table("dst").n_rows == 2


def test_insert_select_arity_mismatch():
    db = Database()
    db.execute("create table src (a int, b int)")
    db.execute("create table dst (a int)")
    with pytest.raises(PlanError, match="arity"):
        db.execute("insert into dst select a, b from src")


def test_insert_row_arity_mismatch():
    db = Database()
    db.execute("create table t (a int, b int)")
    with pytest.raises(PlanError):
        db.execute("insert into t values (1)")


def test_drop_table():
    db = Database()
    db.execute("create table t (a int)")
    db.execute("drop table t")
    assert "t" not in db.table_names()


def test_drop_missing_table_raises():
    db = Database()
    with pytest.raises(CatalogError):
        db.execute("drop table ghost")


def test_drop_if_exists_is_silent():
    db = Database()
    db.execute("drop table if exists ghost")


def test_drop_multiple_tables():
    db = Database()
    db.execute("create table a (x int)")
    db.execute("create table b (x int)")
    db.execute("drop table a, b")
    assert db.table_names() == []


def test_rename():
    db = Database()
    db.execute("create table a (x int)")
    db.execute("alter table a rename to b")
    assert "b" in db.table_names()
    assert "a" not in db.table_names()


def test_rename_onto_existing_raises():
    db = Database()
    db.execute("create table a (x int)")
    db.execute("create table b (x int)")
    with pytest.raises(CatalogError, match="already exists"):
        db.execute("alter table a rename to b")


def test_truncate_keeps_schema():
    db = Database()
    db.execute("create table t (a int, b float)")
    db.execute("insert into t values (1, 2.5)")
    db.execute("truncate table t")
    assert db.table("t").n_rows == 0
    db.execute("insert into t values (2, 3.5)")
    assert db.table("t").n_rows == 1


def test_load_table_and_read_back():
    db = Database()
    db.load_table("t", {"a": np.array([5, 6], dtype=np.int64)})
    assert db.execute("select a from t").column("a").tolist() == [5, 6]


def test_load_table_duplicate_name_rejected():
    db = Database()
    db.load_table("t", {"a": np.array([1], dtype=np.int64)})
    with pytest.raises(CatalogError, match="already exists"):
        db.load_table("t", {"a": np.array([1], dtype=np.int64)})


def test_table_names_sorted():
    db = Database()
    for name in ("zz", "aa", "mm"):
        db.execute(f"create table {name} (x int)")
    assert db.table_names() == ["aa", "mm", "zz"]


def test_case_insensitive_table_names():
    db = Database()
    db.execute("create table MyTable (x int)")
    db.execute("insert into mytable values (1)")
    assert db.execute("select x from MYTABLE").scalar() == 1


def test_scalar_on_multi_row_result_raises():
    db = Database()
    db.execute("create table t (a int)")
    db.execute("insert into t values (1), (2)")
    with pytest.raises(Exception, match="1x1"):
        db.execute("select a from t").scalar()


def test_execute_script_runs_all_statements():
    db = Database()
    results = db.execute_script(
        "create table t (a int); insert into t values (1); select a from t"
    )
    assert len(results) == 3
    assert results[2].scalar() == 1


def test_execute_script_runs_each_statement_through_execute():
    """Every statement of a script is logged with its own text and parsed
    through the plan cache — a repeated template inside one script hits —
    and a ``;`` inside a string literal or a comment does not split."""
    db = Database()
    results = db.execute_script("""
        create table t (a int64, s text);
        insert into t values (1, 'x;y'), (2, 'z');  -- two rows; one ';'
        select a from t where a = 1 /* ; */;
        select a from t where a = 2
    """)
    assert [r.rowcount for r in results] == [0, 2, 1, 1]
    assert results[3].scalar() == 2
    assert [record.sql for record in db.stats.log] == [
        "create table t (a int64, s text)",
        "insert into t values (1, 'x;y'), (2, 'z')",
        "-- two rows; one ';'\n        select a from t where a = 1 /* ; */",
        "select a from t where a = 2",
    ]
    assert db.execute("select s from t where a = 1").scalar() == "x;y"
    # A template first seen inside a script is a hit the second time the
    # same script uses it.
    before = db.stats.snapshot()
    db.execute_script("select a, s from t where a = 1; "
                      "select a, s from t where a = 2")
    delta = db.stats.snapshot().delta(before)
    assert delta.plan_cache_misses == 1 and delta.plan_cache_hits == 1
