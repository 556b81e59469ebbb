"""Expression semantics, exercised end-to-end through SQL SELECTs."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.sqlengine import CatalogError, Database, ExecutionError, PlanError
from repro.sqlengine.functions import _least_greatest
from repro.sqlengine.types import FLOAT64, INT64, TEXT, Column


@pytest.fixture()
def db():
    database = Database()
    database.execute("create table t (a int, b int, f float, s text)")
    database.execute(
        "insert into t (a, b, f, s) values "
        "(1, 10, 1.5, 'x'), (2, null, 2.5, 'y'), (3, 30, null, 'z')"
    )
    return database


def one(db, sql):
    return db.execute(sql).scalar()


def test_arithmetic_int():
    db = Database()
    assert db.execute("select 2 + 3 * 4").scalar() == 14
    assert db.execute("select (2 + 3) * 4").scalar() == 20
    assert db.execute("select 7 % 3").scalar() == 1
    assert db.execute("select -5 + 2").scalar() == -3


def test_division_is_float():
    db = Database()
    assert db.execute("select 7 / 2").scalar() == pytest.approx(3.5)


def test_division_by_zero_yields_null():
    db = Database()
    assert db.execute("select 1 / 0").scalar() is None


def test_modulo_by_zero_raises():
    db = Database()
    with pytest.raises(ExecutionError):
        db.execute("select 1 % 0")


def test_string_concat():
    db = Database()
    assert db.execute("select 'a' || 'b'").scalar() == "ab"


def test_comparisons(db):
    rows = db.execute("select a from t where a >= 2").rows()
    assert sorted(r[0] for r in rows) == [2, 3]


def test_null_comparison_is_false(db):
    # b is NULL in row 2: comparing NULL never matches.
    assert one(db, "select count(*) from t where b = 10") == 1
    assert one(db, "select count(*) from t where b != 10") == 1  # only b=30


def test_is_null_and_is_not_null(db):
    assert one(db, "select count(*) from t where b is null") == 1
    assert one(db, "select count(*) from t where f is not null") == 2


def test_not_operator(db):
    assert one(db, "select count(*) from t where not a = 1") == 2


def test_and_or(db):
    assert one(db, "select count(*) from t where a = 1 or a = 3") == 2
    assert one(db, "select count(*) from t where a >= 1 and a <= 2") == 2


def test_in_list(db):
    assert one(db, "select count(*) from t where a in (1, 3, 99)") == 2
    assert one(db, "select count(*) from t where a not in (1, 3)") == 1


def test_between(db):
    assert one(db, "select count(*) from t where a between 2 and 3") == 2


def test_least_greatest():
    db = Database()
    assert db.execute("select least(3, 1, 2)").scalar() == 1
    assert db.execute("select greatest(3, 1, 2)").scalar() == 3


def test_least_ignores_nulls(db):
    rows = dict(db.execute("select a, least(a, b) from t").rows())
    assert rows[1] == 1
    assert rows[2] == 2  # NULL ignored, not propagated
    assert rows[3] == 3


def test_least_greatest_text():
    db = Database()
    assert db.execute("select least('pear', 'apple', 'kiwi')").scalar() \
        == "apple"
    assert db.execute("select greatest('pear', 'apple', 'kiwi')").scalar() \
        == "pear"


def test_least_greatest_text_columns(db):
    rows = dict(db.execute("select a, least(s, 'y') from t").rows())
    assert rows == {1: "x", 2: "y", 3: "y"}
    rows = dict(db.execute("select a, greatest(s, 'y') from t").rows())
    assert rows == {1: "y", 2: "y", 3: "z"}


def test_least_greatest_text_skips_nulls(db):
    # PostgreSQL semantics: NULL arguments are ignored, not propagated;
    # the result is NULL only when every argument is NULL.
    db.execute("create table txt (a text, b text)")
    db.execute("insert into txt values ('m', null), (null, 'q'), "
               "(null, null), ('a', 'b')")
    rows = db.execute("select least(a, b), greatest(a, b) from txt").rows()
    assert rows == [("m", "m"), ("q", "q"), (None, None), ("a", "b")]


def test_least_greatest_mixed_text_numeric_raises(db):
    with pytest.raises(ExecutionError, match="mix"):
        db.execute("select least(s, a) from t")
    with pytest.raises(ExecutionError, match="mix"):
        db.execute("select greatest(s, 1) from t")


_ARGUMENT_KINDS = ("int", "float", "int_null", "float_null")


@st.composite
def _least_arguments(draw):
    """1-4 argument columns of one length: NULL-free or NULL-bearing,
    int or float (mixed: the result is float), or all text."""
    n = draw(st.integers(1, 12))
    n_args = draw(st.integers(1, 4))
    if draw(st.booleans()) and draw(st.booleans()):
        texts = st.one_of(st.none(), st.sampled_from(["", "a", "b", "pear"]))
        return n, [Column.from_values(np.array(
            draw(st.lists(texts, min_size=n, max_size=n)), dtype=object),
            TEXT) for _ in range(n_args)]
    columns = []
    for kind in draw(st.lists(st.sampled_from(_ARGUMENT_KINDS),
                              min_size=n_args, max_size=n_args)):
        if kind.startswith("int"):
            values = np.array(draw(st.lists(
                st.integers(-(1 << 62), 1 << 62), min_size=n, max_size=n)),
                dtype=np.int64)
        else:
            values = np.array(draw(st.lists(
                st.floats(-1e6, 1e6, allow_nan=False), min_size=n,
                max_size=n)), dtype=np.float64)
        mask = None
        if kind.endswith("null"):
            mask = np.array(draw(st.lists(st.booleans(), min_size=n,
                                          max_size=n)))
        columns.append(Column.from_values(values, mask=mask))
    return n, columns


@given(_least_arguments(), st.booleans())
def test_least_greatest_matches_the_masked_path(arguments, pick_max):
    """NULL-free numeric arguments take one ``np.minimum`` /
    ``np.maximum`` per extra argument; one more argument that is NULL on
    every row changes no row's result but forces the masked path, which
    must agree bit for bit — and both agree with a row-by-row reference
    (NULLs skipped, NULL only where every argument is)."""
    n, columns = arguments
    got = _least_greatest(columns, n, pick_max)
    sql_type = columns[0].sql_type
    padding = Column.nulls(n, TEXT if sql_type == TEXT else INT64)
    masked = _least_greatest(columns + [padding], n, pick_max)
    assert got.sql_type == masked.sql_type
    assert np.array_equal(got.null_mask(), masked.null_mask())
    valid = ~got.null_mask()
    assert np.array_equal(got.values[valid], masked.values[valid])
    pick = max if pick_max else min
    promote = float if got.sql_type == FLOAT64 else (lambda value: value)
    expected = []
    for row in zip(*(col.to_list() for col in columns)):
        present = [promote(value) for value in row if value is not None]
        expected.append(pick(present) if present else None)
    assert got.to_list() == expected


def test_coalesce(db):
    rows = dict(db.execute("select a, coalesce(b, -1) from t").rows())
    assert rows == {1: 10, 2: -1, 3: 30}


def test_coalesce_all_null():
    db = Database()
    assert db.execute("select coalesce(null, null)").scalar() is None


def _nullable_table() -> Database:
    """``t(a, b, c)``: ``b`` is NULL on rows 2, 4 and 5, ``c`` on 4 and 6."""
    db = Database()
    db.execute("create table t (a int64, b int64, c int64)")
    db.execute("insert into t values (1, 10, 1), (2, null, 2), (3, 30, 3), "
               "(4, null, null), (5, null, 5), (6, 60, null)")
    return db


@pytest.mark.parametrize("immutable", (False, True))
def test_coalesce_never_evaluates_a_fallback_for_a_set_row(immutable):
    """Only the rows whose ``b`` is set hold ``a`` = 3: a fallback that
    raises on 3 never sees it (PostgreSQL and sqlite short-circuit too)."""
    db = _nullable_table()

    def partial(x):
        if (x == 3).any():
            raise ValueError("partial() is undefined at 3")
        return x * 100

    db.create_function("partial", partial, immutable=immutable)
    rows = db.execute("select a, coalesce(b, partial(a)) from t").rows()
    assert rows == [(1, 10), (2, 200), (3, 30), (4, 400), (5, 500), (6, 60)]


def test_coalesce_passes_each_fallback_exactly_the_rows_still_null():
    db = _nullable_table()
    seen: dict[str, list] = {"second": [], "third": []}

    def spy(name):
        def fn(x):
            seen[name].append(np.asarray(x).tolist())
            return x
        return fn

    db.create_function("second", spy("second"))
    db.create_function("third", spy("third"))
    rows = db.execute(
        "select a, coalesce(b, second(a) * 1000 + c, third(a)) from t"
    ).rows()
    assert rows == [(1, 10), (2, 2002), (3, 30), (4, 4), (5, 5005), (6, 60)]
    assert seen == {"second": [[2, 4, 5]], "third": [[4]]}


def test_coalesce_evaluates_a_fallback_no_row_needs_over_zero_rows():
    db = _nullable_table()
    seen: list[int] = []

    def spy(x):
        seen.append(int(np.asarray(x).shape[0]))
        return x

    db.create_function("spy", spy)
    assert db.execute("select coalesce(a, spy(b)) from t").rows() == \
        [(a,) for a in range(1, 7)]
    assert seen == [0]


def test_coalesce_promotes_over_every_argument_without_nulls():
    db = _nullable_table()
    column = db.execute("select coalesce(a, 2.5) x from t").relation \
        .column("x")
    assert column.sql_type == "float64"
    assert column.values.dtype == np.float64
    assert column.to_list() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    # A later argument the rows never reach still promotes the type.
    column = db.execute("select coalesce(a, b, 2.5) x from t").relation \
        .column("x")
    assert column.sql_type == "float64"
    assert column.to_list() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    rows = db.execute("select coalesce(b, c, 0.5) from t").rows()
    assert rows == [(10.0,), (2.0,), (30.0,), (0.5,), (5.0,), (60.0,)]
    assert all(isinstance(value, float) for (value,) in rows)


def test_coalesce_returns_a_null_free_encoded_first_argument_as_it_is():
    """An expanding LEFT JOIN matching every probe row gathers ``r.rep`` as
    codes; ``coalesce`` hands that column on, codes and all, and its
    immutable fallback, left no row, is not called."""
    db = Database()
    rng = np.random.default_rng(5)
    rep = rng.integers(-(2 ** 62), 2 ** 62, 50)
    keys = rng.integers(0, 50, 400)
    db.load_table("l", {"k": keys})
    db.load_table("r", {"v": np.arange(50), "rep": rep})
    calls: list[int] = []

    def fallback(x):
        calls.append(int(np.asarray(x).shape[0]))
        return x

    db.create_function("fallback", fallback, immutable=True)
    relation = db.execute(
        "select l.k k, coalesce(r.rep, fallback(l.k)) rep "
        "from l left join r on (l.k = r.v)").relation
    column = relation.column("rep")
    assert column.codes is not None and column.mask is None
    assert column.dictionary is db.table("r").cached_encoding("rep").dictionary
    assert np.array_equal(column.values, rep[relation.column("k").values])
    assert calls == []


def test_coalesce_over_aggregates_restricts_them_to_the_null_groups():
    db = _nullable_table()
    rows = db.execute(
        "select a, coalesce(min(b), max(c), -1) from t group by a").rows()
    assert sorted(rows) == [(1, 10), (2, 2), (3, 30), (4, -1), (5, 5),
                            (6, 60)]


def test_coalesce_is_a_special_form_no_udf_can_take():
    db = Database()
    with pytest.raises(CatalogError, match="special form"):
        db.create_function("coalesce", lambda x: x)
    with pytest.raises(ExecutionError, match="at least one argument"):
        db.execute("select coalesce()")


def test_nullif():
    db = Database()
    assert db.execute("select nullif(5, 5)").scalar() is None
    assert db.execute("select nullif(5, 6)").scalar() == 5


def test_abs_sign_sqrt():
    db = Database()
    assert db.execute("select abs(-4)").scalar() == 4
    assert db.execute("select sign(-9)").scalar() == -1
    assert db.execute("select sqrt(9.0)").scalar() == pytest.approx(3.0)


def test_mod_function():
    db = Database()
    assert db.execute("select mod(10, 3)").scalar() == 1


def test_case_when(db):
    rows = dict(db.execute(
        "select a, case when a = 1 then 100 when a = 2 then 200 else 0 end from t"
    ).rows())
    assert rows == {1: 100, 2: 200, 3: 0}


def test_case_without_else_yields_null(db):
    rows = dict(db.execute(
        "select a, case when a = 1 then 100 end from t"
    ).rows())
    assert rows == {1: 100, 2: None, 3: None}


def test_case_promotes_an_int_branch_to_a_later_float_branch(db):
    """The output is built in the promoted type: an integer first branch
    used to fix the array's dtype and truncate ``2.5`` to ``2``."""
    column = db.execute(
        "select case when a = 1 then 1 else 2.5 end x from t").relation \
        .column("x")
    assert column.sql_type == "float64"
    assert column.values.dtype == np.float64
    assert column.to_list() == [1.0, 2.5, 2.5]
    rows = db.execute("select case when a = 1 then 1 when a = 2 then f "
                      "end from t").rows()
    assert rows == [(1.0,), (2.5,), (None,)]


def test_null_propagates_through_arithmetic(db):
    rows = dict(db.execute("select a, b + 1 from t").rows())
    assert rows[2] is None


def test_unknown_function_raises():
    db = Database()
    with pytest.raises(Exception, match="unknown function"):
        db.execute("select frobnicate(1)")


def test_unknown_column_raises(db):
    with pytest.raises(PlanError, match="unknown column"):
        db.execute("select nope from t")


def test_text_comparison(db):
    assert one(db, "select count(*) from t where s = 'y'") == 1


def test_unary_minus_on_column(db):
    rows = dict(db.execute("select a, -a from t").rows())
    assert rows[3] == -3
