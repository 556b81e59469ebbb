"""Dictionary-encoded columns: the second physical form of ``Column`` and
the kernels that run on its codes.

The form must be invisible — every observable of an encoded column equals
the plain column's over the same rows — and each kernel that honours it
(the dictionary join route lives in ``test_join_kernels.py``'s matrix)
is held against a reference: the packed DISTINCT against the sorted
row set and the plain columns' DISTINCT, the direct-address GROUP BY
against the one reducer over ``group_rows``, an immutable UDF over a
dictionary against the row-wise call.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.sqlengine import Database
from repro.sqlengine.operators import (
    DENSE_SPAN_FLOOR,
    _reduce_slice,
    build_key_index,
    direct_group_rows,
    distinct_rows,
    encode_values,
    group_rows,
)
from repro.sqlengine.table import Table
from repro.sqlengine.types import FLOAT64, INT64, Column

from .distinct_reference import record_branches, reference_rows, row_tokens
from .sqlite_oracle import tee

sparse_values = st.lists(
    st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1),
    min_size=1, max_size=40)


def encode(values) -> Column:
    dictionary, codes = np.unique(np.asarray(values, dtype=np.int64),
                                  return_inverse=True)
    return Column.encoded(codes, dictionary)


# ---------------------------------------------------------------------------
# the form is invisible
# ---------------------------------------------------------------------------


@given(sparse_values, st.data())
def test_encoded_column_round_trips_like_the_plain_column(values, data):
    plain = Column.from_values(np.asarray(values, dtype=np.int64))
    encoded = encode(values)
    n = len(values)
    assert len(encoded) == n and encoded.mask is None
    assert encoded.sql_type == INT64
    assert encoded.byte_size() == plain.byte_size() == 8 * n
    rows = np.asarray(data.draw(st.lists(st.integers(0, n - 1), max_size=60)),
                      dtype=np.int64)
    keep = np.asarray(data.draw(st.lists(st.booleans(), min_size=n,
                                         max_size=n)))
    for got, expected in (
        (encoded, plain),
        (encoded.take(rows), plain.take(rows)),
        (encoded.take(np.flatnonzero(keep)), plain.take(np.flatnonzero(keep))),
        (encoded.take(rows).take(np.flatnonzero(keep[rows])),
         plain.take(rows).take(np.flatnonzero(keep[rows]))),
    ):
        # take carries the form and the dictionary object along.
        assert got.codes is not None and got.dictionary is encoded.dictionary
        assert got._values is None  # nothing gathered a value yet
        assert got.byte_size() == expected.byte_size()
        assert got.to_list() == expected.to_list()
        assert got._values is not None  # ... and the gather happened once
        assert np.array_equal(got.values, expected.values)
        assert np.array_equal(got.non_null_values(), expected.values)
        assert not got.null_mask().any()
    merged = Column.concat([encoded, plain, encoded.take(rows)])
    assert merged.codes is None
    assert merged.to_list() == values + values + plain.take(rows).to_list()


def test_storage_is_what_a_kernel_reads():
    """``storage`` is the array a kernel that honours the form reads — the
    codes of an encoded column, the values of a plain one — and
    ``with_storage`` builds a column of the same form over other rows of
    it, sharing the dictionary object."""
    encoded = encode([50, -7, 50, 2 ** 62, -7])
    plain = Column.from_values(encoded.values.copy())
    assert encoded.storage is encoded.codes
    assert plain.storage is plain.values
    rows = np.array([3, 0, 0])
    for column in (encoded, plain):
        picked = column.with_storage(column.storage[rows])
        assert (picked.codes is None) == (column.codes is None)
        assert picked.dictionary is column.dictionary
        assert picked.to_list() == [2 ** 62, 50, 50]


def test_table_encoding_is_cached_single_flight_and_invalidated():
    rng = np.random.default_rng(0)
    values = rng.integers(-(2 ** 62), 2 ** 62, 50)[rng.integers(0, 50, 400)]
    table = Table("t", {"k": Column.from_values(values),
                        "x": Column.from_values(rng.normal(size=400)),
                        "n": Column(values.copy(), INT64, values > 0)})
    assert table.cached_encoding("k") is None
    encoded = table.encoded_column("k")
    assert encoded is table.encoded_column("k") is table.cached_encoding("k")
    assert np.array_equal(encoded.dictionary, np.unique(values))
    assert np.array_equal(encoded.dictionary[encoded.codes], values)
    # The stored column keeps its form; the twin shares its values.
    assert table.column("k").codes is None
    assert encoded.values is table.column("k").values
    # Floats and NULL-bearing columns have no encoded form.
    assert table.encoded_column("x") is None
    assert table.encoded_column("n") is None
    table.append({"k": Column.from_values(np.array([7])),
                  "x": Column.from_values(np.array([0.5])),
                  "n": Column.from_values(np.array([1]))})
    assert table.cached_encoding("k") is None
    assert len(table.encoded_column("k")) == 401
    # A column stored encoded is its own encoding.
    stored = Table("s", {"k": encoded})
    assert stored.encoded_column("k") is encoded


@pytest.mark.parametrize("what", ["index", "encoding"])
def test_statements_over_one_table_share_one_build(monkeypatch, what):
    """A round's statements read one ``reps`` table several times.  Every
    reader of one table version must get one object — a second dictionary
    would make their codes incomparable — built once, with exactly one
    cache miss counted."""
    import repro.sqlengine.table as table_module

    builds = []
    real_index = table_module.build_key_index
    real_encode = table_module.encode_values

    def counting_index(*args):
        builds.append("index")
        return real_index(*args)

    def counting_encode(*args):
        builds.append("encoding")
        return real_encode(*args)

    monkeypatch.setattr(table_module, "build_key_index", counting_index)
    monkeypatch.setattr(table_module, "encode_values", counting_encode)
    rng = np.random.default_rng(1)
    with Database() as db:
        db.load_table("t", {"k": rng.integers(-(2 ** 62), 2 ** 62, 500)})
        table = db.table("t")
        if what == "index":
            got = [db._executor._stored_index(_Sources(table), "t.k")
                   for _ in range(2)]
        else:
            got = [table.encoded_column("k") for _ in range(2)]
        assert builds == [what]
        assert got[0] is got[1] and got[0] is not None
        if what == "index":
            assert db.stats.index_cache_misses == 1
            assert db.stats.index_cache_hits == 1
        else:
            assert got[0].dictionary is table.cached_encoding("k").dictionary


class _Sources:
    """The one attribute of a Frame ``Executor._stored_index`` reads."""

    def __init__(self, table):
        self.sources = {"t.k": (table, "k")}


def test_index_over_an_encoded_column_is_built_from_codes():
    """Uniqueness and sortedness come from the codes, the bounds through
    the dictionary; no value is gathered."""
    rng = np.random.default_rng(2)
    values = rng.integers(-(2 ** 62), 2 ** 62, 300)[rng.integers(0, 300, 2000)]
    encoded = encode(values)
    index = build_key_index(encoded.codes, encoded.dictionary)
    reference = build_key_index(values)
    assert index.is_unique == (np.unique(values).shape[0] == values.shape[0])
    assert (index.is_sorted, index.n_rows) == \
        (reference.is_sorted, reference.n_rows)
    assert (index.min_value, index.max_value) == \
        (int(values.min()), int(values.max()))
    assert encoded._values is None
    # Grouping reads the codes and gives the values' groups.
    for got, expected in zip(group_rows([encoded]),
                             group_rows([Column.from_values(values)])):
        assert np.array_equal(got, expected)
    # A stored-sorted column: the ends are the bounds.
    ordered = encode(np.sort(values))
    index = build_key_index(ordered.codes, ordered.dictionary)
    assert index.is_sorted and not index.is_unique
    assert (index.min_value, index.max_value) == \
        (int(values.min()), int(values.max()))


# ---------------------------------------------------------------------------
# one encoder
# ---------------------------------------------------------------------------


def _encoder_input(kind: str, n: int, rng) -> np.ndarray:
    """``n`` int64 values with repeats: a dense span, sparse, all
    negative, or anywhere in int64 including both ends."""
    if kind == "dense":
        pool = 1000 + rng.permutation(2 * n + 1)
    elif kind == "sparse":
        pool = rng.integers(0, 2 ** 40, n + 1)
    elif kind == "negative":
        pool = rng.integers(-(2 ** 62), -1, n + 1)
    else:
        pool = rng.integers(-(2 ** 63), 2 ** 63 - 1, n + 1, endpoint=True)
        pool[:2] = [-(2 ** 63), 2 ** 63 - 1][:pool.shape[0]]
    return pool[rng.integers(0, pool.shape[0], n)].astype(np.int64)


@pytest.fixture
def sorting_encoder(monkeypatch):
    """Every sparse input takes the packed sort, however few its rows."""
    import repro.sqlengine.operators as operators_module

    monkeypatch.setattr(operators_module, "CACHE_KERNEL_MIN_ROWS", 1)


@pytest.mark.parametrize("n", (0, 1, 2, 37, 5000))
@pytest.mark.parametrize("kind", ("dense", "sparse", "negative",
                                  "full-range"))
def test_encode_values_is_numpy_unique(sorting_encoder, kind, n):
    values = _encoder_input(kind, n, np.random.default_rng(n))
    dictionary, codes = encode_values(values)
    expected_dictionary, expected_codes = np.unique(values,
                                                    return_inverse=True)
    assert dictionary.dtype == codes.dtype == np.int64
    assert np.array_equal(dictionary, expected_dictionary)
    assert np.array_equal(codes, expected_codes)


@given(st.lists(st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1),
                max_size=60), st.integers(0, 3))
def test_encode_values_is_numpy_unique_on_any_input(values, repeat):
    import repro.sqlengine.operators as operators_module

    values = np.asarray(values * (repeat + 1), dtype=np.int64)
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(operators_module, "CACHE_KERNEL_MIN_ROWS", 1)
        dictionary, codes = encode_values(values)
    expected_dictionary, expected_codes = np.unique(values,
                                                    return_inverse=True)
    assert np.array_equal(dictionary, expected_dictionary)
    assert np.array_equal(codes, expected_codes)


@pytest.mark.parametrize("values, falls_back", [
    # Four rows leave 62 bits for the value: 0 and 1 share a prefix
    # across a 2^64 span and come out in row order, 1 before 0.
    ([-(2 ** 63), 2 ** 63 - 1, 1, 0], True),
    ([2 ** 63 - 1, 7, -(2 ** 63), 5, 6, 4, 7], True),
    # A shared prefix in value order needs no repair.
    ([-(2 ** 63), 2 ** 63 - 1, 0, 1], False),
    # Spans that fit beside the row number share no prefix.
    ([2 ** 40, -5, 2 ** 40, 3], False),
])
def test_encode_values_falls_back_on_a_shared_prefix_out_of_order(
        sorting_encoder, monkeypatch, values, falls_back):
    import repro.sqlengine.operators as operators_module

    calls = []
    real_unique = np.unique

    def counting_unique(*args, **kwargs):
        calls.append(args[0].shape[0])
        return real_unique(*args, **kwargs)

    monkeypatch.setattr(operators_module.np, "unique", counting_unique)
    values = np.asarray(values, dtype=np.int64)
    dictionary, codes = encode_values(values)
    assert calls == ([len(values)] if falls_back else [])
    assert np.array_equal(dictionary, real_unique(values))
    assert np.array_equal(dictionary[codes], values)


# ---------------------------------------------------------------------------
# the encoding rule on a UNION ALL of one table's scans
# ---------------------------------------------------------------------------


def _edges_db(db: Database, rng) -> tuple[np.ndarray, np.ndarray]:
    v1 = rng.integers(0, 2 ** 40, 300)
    v2 = rng.integers(0, 2 ** 40, 300)
    db.load_table("e", {"v1": v1, "v2": v2, "x": rng.normal(size=300),
                        "n": np.where(v1 % 3 == 0, 0, v1)})
    db.execute("insert into e values (1, 2, 0.5, null)")
    return np.append(v1, 1), np.append(v2, 2)


def test_symmetrised_scan_is_stored_over_one_dictionary():
    """The setup query stacks both columns' joint encoding: the stored
    doubled table's columns share one dictionary object, the sorted
    distinct values of both, and hold exactly the plain rows."""
    with Database() as db:
        v1, v2 = _edges_db(db, np.random.default_rng(5))
        db.execute("create table g as select v1, v2 from e "
                   "union all select v2, v1 from e")
        a, b = (db.table("g").column(name) for name in ("v1", "v2"))
        assert a.codes is not None and a.dictionary is b.dictionary
        assert a._values is None and b._values is None
        assert np.array_equal(a.dictionary, np.unique(np.append(v1, v2)))
        assert np.array_equal(a.values, np.append(v1, v2))
        assert np.array_equal(b.values, np.append(v2, v1))
        # Three arms, and the same columns under a DISTINCT: one
        # dictionary object, the table's cached one.
        three = db.execute("select v2 a, v1 b from e union all select v1, "
                           "v1 from e union all select v1, v2 from e"
                           ).relation
        assert three.column("a").dictionary is a.dictionary
        assert three.column("b").dictionary is a.dictionary
        distinct = db.execute("select distinct u.a from (select v1 a from e "
                              "union all select v2 a from e) as u").relation
        assert distinct.column("a").dictionary is a.dictionary
        assert np.array_equal(distinct.column("a").values, a.dictionary)


@pytest.mark.parametrize("sql", [
    # a filtered arm
    "select v1, v2 from e union all select v2, v1 from e where v1 > 5",
    # arms over two tables
    "select v1, v2 from e union all select v2, v1 from f",
    # an expression, a subquery, a DISTINCT arm
    "select v1, v2 from e union all select v2 + 0, v1 from e",
    "select v1, v2 from e union all select v2, v1 from (select v1, v2 "
    "from e) as s",
    "select v1, v2 from e union all select distinct v2, v1 from e",
])
def test_union_all_other_than_unfiltered_scans_of_one_table_stays_plain(sql):
    with Database() as db:
        v1, v2 = _edges_db(db, np.random.default_rng(6))
        db.load_table("f", {"v1": v1, "v2": v2})
        relation = db.execute(sql).relation
        assert all(relation.column(name).codes is None
                   for name in relation.names)
        assert db.table("e").cached_encoding("v1") is None


def test_union_all_encodes_only_the_null_free_int_columns():
    """A NULL-bearing or float column drawn into an output column leaves
    that column plain; the NULL-free int64 ones beside it are encoded."""
    with Database() as db:
        _edges_db(db, np.random.default_rng(7))
        relation = db.execute("select v1, n, x from e union all "
                              "select v2, v1, x from e").relation
        assert relation.column("v1").codes is not None
        assert relation.column("n").codes is None
        assert relation.column("x").codes is None
        db.execute("create table s (v text, w int64)")
        db.execute("insert into s values ('a', 1), ('b', 2)")
        relation = db.execute("select v, w from s union all select v, w "
                              "from s").relation
        assert relation.column("v").codes is None
        assert relation.column("w").codes is not None


def test_spark_model_stores_the_doubled_table_over_the_joint_dictionary():
    """Encoded columns are storage, which the Spark model shares: its
    setup query stacks the same joint encoding the database's does."""
    from repro.spark import SparkSQLDatabase

    with SparkSQLDatabase() as db:
        v1, v2 = _edges_db(db, np.random.default_rng(8))
        db.execute("create table g as select v1, v2 from e "
                   "union all select v2, v1 from e")
        a, b = (db.table("g").column(name) for name in ("v1", "v2"))
        assert a.codes is not None and a.dictionary is b.dictionary
        assert a.dictionary is \
            db.table("e").joint_encoding(["v1", "v2"])["v1"].dictionary
        assert np.array_equal(a.values, np.append(v1, v2))
        assert np.array_equal(b.values, np.append(v2, v1))


def test_second_run_builds_no_joint_encoding(monkeypatch):
    """The edge table's joint encoding is cached on it: a second run over
    the same input stores the doubled table over the same dictionary
    without encoding again."""
    import repro.sqlengine.table as table_module
    from repro.core import RandomisedContraction
    from repro.graphs import gnm_random_graph, load_edges_into

    built = []
    real_encode = table_module.encode_values

    def counting_encode(values):
        built.append(values.shape[0])
        return real_encode(values)

    monkeypatch.setattr(table_module, "encode_values", counting_encode)
    with Database() as db:
        edges = gnm_random_graph(400, 600, np.random.default_rng(9))
        load_edges_into(db, "edges", edges)
        labels, joint_builds = [], []
        for _ in range(2):
            built.clear()
            result = RandomisedContraction().run(db, "edges", seed=3)
            labels.append(result.labels(db))
            # The joint encoding is the one over both columns' rows.
            joint_builds.append(built.count(2 * len(edges.src)))
        assert joint_builds == [1, 0]
        for first, second in zip(*labels):
            assert np.array_equal(first, second)


# ---------------------------------------------------------------------------
# packed DISTINCT
# ---------------------------------------------------------------------------


@given(st.lists(st.tuples(st.integers(-(2 ** 63), 2 ** 63 - 1),
                          st.integers(-3, 3), st.integers(0, 1)),
                min_size=1, max_size=60),
       st.integers(1, 3))
def test_packed_distinct_is_the_reference_row_set_in_key_order(rows, width):
    columns = [encode([row[i] for row in rows]) for i in range(width)]
    distinct = distinct_rows(columns)
    for got, source in zip(distinct, columns):
        assert got.codes is not None and got.dictionary is source.dictionary
    # Key order: ascending as tuples of values, no duplicates — exactly
    # the reference's rows ...
    assert row_tokens(distinct) == reference_rows(columns)
    # ... and the plain columns' DISTINCT, row for row: one order.
    plain = [Column.from_values(col.values) for col in columns]
    assert [col.to_list() for col in distinct_rows(plain)] == \
        [col.to_list() for col in distinct]


def test_packed_distinct_leading_column_comes_out_sorted():
    rng = np.random.default_rng(3)
    a = encode(rng.integers(-(2 ** 62), 2 ** 62, 80)[rng.integers(0, 80, 5000)])
    b = encode(rng.integers(-(2 ** 62), 2 ** 62, 90)[rng.integers(0, 90, 5000)])
    first, second = distinct_rows([a, b])
    index = build_key_index(first.codes, first.dictionary)
    assert index.is_sorted  # the next GROUP BY over it skips its sort
    assert len(first) == len(second) == len(set(zip(a.to_list(),
                                                    b.to_list())))


def test_packed_distinct_falls_back_when_it_cannot_pack(monkeypatch):
    """Four 16-bit code columns need 64 bits, one more than a word
    offers, and codes are never ranked: they are grouped, still in key
    order and still encoded.  Three pack."""
    wide = np.arange(1 << 16, dtype=np.int64)
    columns = [Column.encoded(wide, wide) for _ in range(4)]
    taken = record_branches(monkeypatch)
    distinct = distinct_rows(columns)
    assert all(col.codes is not None for col in distinct)
    assert all(np.array_equal(col.codes, wide) for col in distinct)
    distinct_rows(columns[:3])
    assert taken == ["grouped", "packed-codes"]


def test_executor_distinct_over_encoded_columns_is_in_key_order():
    """Through SQL: two expanding gathers of one stored column leave
    encoded, and their DISTINCT comes out in key order, holding sqlite's
    rows."""
    rng = np.random.default_rng(4)
    reps = rng.permutation(200) * (2 ** 62 // 200) - 2 ** 61
    edges = {"v1": rng.integers(0, 200, 3000),
             "v2": rng.integers(0, 200, 3000)}
    sql = ("select distinct a.rep x, b.rep y from e, r as a, r as b "
           "where e.v1 = a.v and e.v2 = b.v and a.rep != b.rep")
    with tee(Database()) as db:
        db.load_table("e", edges)
        db.load_table("r", {"v": np.arange(200), "rep": reps // 7 * 7})
        relation = db.execute(sql).relation
        assert db.oracle.compared == 1
        expected = sorted(db.oracle.execute(sql))
    assert relation.column("x").codes is not None
    assert relation.column("y").codes is not None
    assert relation.rows() == expected


# ---------------------------------------------------------------------------
# the encoding rule on a LEFT JOIN's build side
# ---------------------------------------------------------------------------


def _left_join_rep(probe_keys) -> tuple[Column, Column, Table]:
    """``l LEFT JOIN r`` on a 50-row build side with sparse ``rep`` values,
    teed to sqlite: the output's ``l.k`` and ``r.rep`` columns and the
    build table."""
    rng = np.random.default_rng(10)
    with tee(Database()) as db:
        db.load_table("l", {"k": np.asarray(probe_keys, dtype=np.int64)})
        db.load_table("r", {"v": np.arange(50),
                            "rep": rng.integers(-(2 ** 62), 2 ** 62, 50)})
        relation = db.execute("select l.k k, r.rep rep from l left join r "
                              "on (l.k = r.v)").relation
        assert db.oracle.compared == 1
        return relation.column("k"), relation.column("rep"), db.table("r")


def test_expanding_left_join_matching_every_row_gathers_codes():
    rng = np.random.default_rng(11)
    _, rep, build = _left_join_rep(rng.integers(0, 50, 400))
    assert rep.codes is not None and rep.mask is None
    assert rep.dictionary is build.cached_encoding("rep").dictionary


def test_left_join_null_extending_a_row_gathers_plain_values():
    rng = np.random.default_rng(12)
    keys = rng.integers(0, 50, 400)
    keys[123] = 50  # the one probe key the build side lacks
    k, rep, _ = _left_join_rep(keys)
    assert rep.codes is None
    assert np.array_equal(rep.null_mask(), k.values == 50)
    assert int(rep.null_mask().sum()) == 1


def test_non_expanding_left_join_gathers_plain_values():
    _, rep, build = _left_join_rep(np.arange(20))  # 20 output rows < 50
    assert rep.codes is None and rep.mask is None
    assert build.cached_encoding("rep") is None


# ---------------------------------------------------------------------------
# direct-address GROUP BY
# ---------------------------------------------------------------------------


def _aggregates(rng, n):
    """(kind, argument) pairs: every kind direct addressing reduces."""
    ints = rng.integers(-(2 ** 63), 2 ** 63 - 1, n)
    floats = rng.normal(size=n)
    floats[rng.random(n) < 0.1] = np.nan
    mask = rng.random(n) < 0.3
    return [
        ("count*", None),
        ("count", Column(ints, INT64, mask.copy())),
        ("count", Column(floats, FLOAT64)),
        ("min", Column(ints, INT64)),
        ("min", Column(ints, INT64, mask.copy())),
        ("max", Column(ints, INT64, mask.copy())),
        ("min", Column(floats, FLOAT64, mask.copy())),
        ("max", Column(floats, FLOAT64)),
        ("max", Column(rng.random(n) < 0.5, "bool", mask.copy())),
    ]


def assert_direct_equals_sorted(key: Column, seed: int = 0) -> None:
    direct = direct_group_rows(key)
    assert direct is not None
    order, starts = group_rows([key])
    counts = np.diff(np.append(starts, order.shape[0]))
    # The groups, in the sort's own (ascending key) order ...
    assert np.array_equal(direct.present + direct.low,
                          key.storage[order[starts]])
    assert np.array_equal(direct.counts, counts)
    # ... and every reduction the one reducer computes over them.
    for kind, argument in _aggregates(np.random.default_rng(seed), len(key)):
        expected = _reduce_slice(kind, argument, order, starts, counts)
        got = _reduce_slice(kind, argument, None, None, direct.counts,
                            direct)
        assert got.sql_type == expected.sql_type, kind
        assert got.values.dtype == expected.values.dtype, kind
        assert np.array_equal(got.values, expected.values,
                              equal_nan=True), kind
        assert (got.mask is None) == (expected.mask is None), kind
        if got.mask is not None:
            assert np.array_equal(got.mask, expected.mask)


@given(st.lists(st.integers(-40, 40), min_size=1, max_size=80),
       st.integers(0, 5))
def test_direct_address_group_by_equals_the_sorted_reducer(keys, seed):
    assert_direct_equals_sorted(Column.from_values(np.asarray(keys)), seed)
    # An encoded key column is grouped through its codes.
    sparse = Column.from_values(np.asarray(keys) * (2 ** 55))
    assert len(set(keys)) == 1 or direct_group_rows(sparse) is None
    assert_direct_equals_sorted(encode(sparse.values), seed)


def test_direct_address_group_by_span_limit_and_refusals():
    # A span of exactly the dense limit is served, one more is not.
    at_limit = Column.from_values(np.array([-5, DENSE_SPAN_FLOOR - 6, 3, -5]))
    assert_direct_equals_sorted(at_limit)
    assert direct_group_rows(
        Column.from_values(np.array([-5, DENSE_SPAN_FLOOR - 5]))) is None
    assert direct_group_rows(at_limit).span == DENSE_SPAN_FLOOR
    # Empty, NULL-bearing, float and text keys are not its shape.
    assert direct_group_rows(Column.from_values(np.empty(0, np.int64))) is None
    assert direct_group_rows(Column(np.array([1, 2]), INT64,
                                    np.array([True, False]))) is None
    assert direct_group_rows(Column.from_values(np.array([1.0, 2.0]))) is None
    assert direct_group_rows(
        Column.from_values(np.array(["a"], dtype=object))) is None
    with pytest.raises(Exception):
        _reduce_slice("sum", Column(np.arange(4), INT64),
                      None, None, np.ones(4, dtype=np.int64),
                      direct_group_rows(Column.from_values(np.arange(4))))


@pytest.mark.parametrize("sql", [
    "select k, count(*) c, min(x) lo, max(x) hi, count(n) m from t group by k",
    "select k, min(n) lo, max(y) hi from t group by k",
    "select k from t group by k",
    # Outside its shape: a sum, a second key, count(distinct).
    "select k, sum(x) s, min(x) lo from t group by k",
    "select k, x, count(*) c from t group by k, x",
    "select k, count(distinct x) d from t group by k",
])
def test_executor_direct_group_by_matches_the_sorting_engine(sql,
                                                            monkeypatch):
    rng = np.random.default_rng(5)
    columns = {"k": rng.integers(-30, 30, 600), "x": rng.integers(-9, 9, 600),
               "y": rng.normal(size=600)}
    results = []
    for direct in (True, False):
        with Database() as db:
            if not direct:
                # Every GROUP BY sorts.
                monkeypatch.setattr(db._executor, "_direct_groups",
                                    lambda *args: None)
            db.load_table("t", columns)
            db.execute("create table u as select k, x, y, "
                       "nullif(x, 3) n from t")
            results.append(db.execute(sql.replace(" t ", " u ")).relation)
    direct, plain = results
    assert direct.names == plain.names
    for name in plain.names:
        assert direct.column(name).sql_type == plain.column(name).sql_type
        assert direct.column(name).to_list() == plain.column(name).to_list()


@pytest.mark.parametrize("aggregate,source", [
    ("min(x)", "subquery"),  # direct addressing
    ("sum(x)", "subquery"),  # the sort
    ("sum(x)", "stored"),    # a stored GROUP BY output, found sorted
])
def test_group_key_keeps_its_form_on_every_grouping_path(aggregate, source):
    """Whichever path groups an encoded key hands it on encoded, over the
    same dictionary: a later DISTINCT's row order must not depend on the
    aggregate list or on where the key was read."""
    rng = np.random.default_rng(9)
    reps = rng.integers(-(2 ** 62), 2 ** 62, 50)
    with Database() as db:
        db.load_table("e", {"v": rng.integers(0, 50, 2000),
                            "x": rng.integers(-9, 9, 2000)})
        db.load_table("r", {"v": np.arange(50), "rep": reps})
        joined = "select r.rep k, e.x x from e, r where e.v = r.v"
        if source == "stored":
            # A GROUP BY stores its rows in key order.
            db.execute(f"create table s as select k, min(x) x from "
                       f"({joined}) j group by k")
            source_sql = "s"
        else:
            source_sql = f"({joined}) s"
        skipped = db.stats.group_sorts_skipped
        relation = db.execute(
            f"select k, {aggregate} a from {source_sql} group by k").relation
        key = relation.column("k")
        assert key.codes is not None
        assert key.dictionary is db.table("r").cached_encoding("rep").dictionary
        assert key.to_list() == sorted(set(
            reps[db.table("e").column("v").values].tolist()))
        assert db.stats.group_sorts_skipped - skipped == (source == "stored")


# ---------------------------------------------------------------------------
# immutable UDFs
# ---------------------------------------------------------------------------


def test_immutable_udf_is_applied_once_per_occurring_value():
    calls = []

    def triple(scale, x):
        x = np.asarray(x)
        calls.append(x.copy())
        if (x == 7).any():
            raise ValueError("7 lies outside this function's domain")
        return x * scale

    rng = np.random.default_rng(6)
    reps = rng.integers(-(2 ** 40), 2 ** 40, 50)
    ids = rng.integers(0, 50, 2000)
    ids[ids == 7] = 8  # 7 lies in [min, max] and occurs in no row
    with Database() as db:
        db.create_function("pure", triple, immutable=True)
        db.create_function("impure", triple)
        db.load_table("e", {"v": ids})
        db.load_table("r", {"v": np.arange(50), "rep": reps})
        # g.rep is an expanding gather of r.rep: encoded, 50 distinct values.
        db.execute("create table g as select r.rep as rep from e, r "
                   "where e.v = r.v")
        g_rep = db.table("g").column("rep")
        assert g_rep.codes is not None

        # An encoded column: one call over its dictionary (r.rep's 50
        # values), gathered back through the codes.
        pure = db.execute("select pure(3, rep) y from g").column("y")
        assert len(calls) == 1
        assert np.array_equal(calls[-1], np.unique(reps))
        assert pure.tolist() == (g_rep.values * 3).tolist()
        # Not declared immutable: every row, every time.
        impure = db.execute("select impure(3, rep) y from g").column("y")
        assert len(calls) == 2 and calls[-1].shape[0] == 2000
        assert impure.tolist() == pure.tolist()
        # The same dictionary and literals again — or any rows inside it —
        # make no call; different literals do.
        again = db.execute("select pure(3, rep) y from g").column("y")
        cut = int(np.median(reps))
        subset = db.execute(f"select pure(3, rep) y from g where rep > {cut}")
        assert len(calls) == 2
        assert again.tolist() == pure.tolist()
        assert subset.column("y").tolist() == [
            3 * v for v in g_rep.values.tolist() if v > cut]
        db.execute("select pure(4, rep) y from g")
        assert len(calls) == 3
        assert np.array_equal(calls[-1], np.unique(reps))

        # A plain column: one call with every row, every time — so never
        # with the absent 7 in [min, max] this function raises on.
        got = db.execute("select pure(3, v) y from e").column("y")
        db.execute("select pure(3, v) y from e where v > 20")
        assert len(calls) == 5
        assert calls[-2].tolist() == ids.tolist()
        assert calls[-1].tolist() == [i for i in ids.tolist() if i > 20]
        assert got.tolist() == (ids * 3).tolist()
        assert not any((call == 7).any() for call in calls)
        # (It does raise when a row supplies 7.)
        with pytest.raises(ValueError, match="outside"):
            db.execute("select pure(3, v - 1) y from e")

        # Row-wise too: a NULL-bearing column (nullif makes v = 8 NULL) ...
        nulls = db.execute("select pure(3, nullif(v, 8)) y from e")
        assert calls[-1].shape[0] == 2000
        assert [y for (y,) in nulls.rows()] == [
            None if i == 8 else 3 * i for i in ids]
        # ... and a call with two column arguments.
        db.execute("select pure(rep, rep) y from g")
        assert calls[-1].shape[0] == 2000

        # An encoded column shorter than its dictionary is evaluated over
        # the entries its rows hold, not the whole dictionary ...
        db.execute("create table small as select rep from g where rep = "
                   f"{int(reps[ids[0]])}")
        small_rows = db.table("small").n_rows
        assert db.table("small").column("rep").codes is not None
        assert 1 < small_rows < 50
        got = db.execute("select pure(5, rep) y from small").column("y")
        assert calls[-1].tolist() == [int(reps[ids[0]])]
        assert got.tolist() == [5 * int(reps[ids[0]])] * small_rows
        # ... and not at all once the dictionary was, for these literals.
        db.execute("select pure(7, rep) y from g")
        n_calls = len(calls)
        got = db.execute("select pure(7, rep) y from small").column("y")
        assert len(calls) == n_calls
        assert got.tolist() == [7 * int(reps[ids[0]])] * small_rows


@pytest.mark.parametrize("returns", ("int64", "float64", "text"))
def test_immutable_udf_over_zero_rows_is_not_called(returns):
    """No row, no call: an immutable function over an empty column — a
    composition's fallback when no label row is null-extended — returns
    an empty column of its declared type; one not declared immutable is
    still called."""
    calls = []

    def counted(x):
        calls.append(len(x))
        return np.asarray(x).astype(np.dtype(object if returns == "text"
                                             else returns))

    with Database() as db:
        db.create_function("pure", counted, returns=returns, immutable=True)
        db.create_function("impure", counted, returns=returns)
        db.load_table("t", {"v": np.arange(5)})
        db.execute("create table z as select v from t where v > 9")
        column = db.execute("select pure(v) y from z").relation.column("y")
        assert len(column) == 0 and column.sql_type == returns
        assert column.values.dtype == np.dtype(object if returns == "text"
                                               else returns)
        assert calls == []
        db.execute("select impure(v) y from z")
        assert calls == [0]
        # A row makes the call.
        db.execute("select pure(v) y from t where v = 3")
        assert calls == [0, 1]


def test_dictionaries_are_read_only():
    """A dictionary's identity stands for its content — joins, indexes
    and UDF evaluations key on it — so no one may write into it."""
    rng = np.random.default_rng(5)
    with Database() as db:
        db.load_table("e", {"v": rng.integers(0, 20, 200)})
        db.load_table("r", {"v": np.arange(20),
                            "rep": rng.integers(0, 2 ** 40, 20)})
        db.execute("create table g as select r.rep as rep from e, r "
                   "where e.v = r.v")
        stored = db.table("g").column("rep")
        cached = db.table("r").encoded_column("rep")
        assert stored.codes is not None and stored.dictionary is cached.dictionary
        for dictionary in (stored.dictionary,
                           stored.take(np.arange(3)).dictionary,
                           encode([3, 1, 2]).dictionary):
            with pytest.raises(ValueError, match="read-only"):
                dictionary[0] = 0


def test_codes_are_read_only():
    """A join whose build rows are its probe codes hands the codes on as
    its row map, so a stored encoded column's codes — like those of a
    cached encoding or of any encoded gather — refuse an in-place write."""
    rng = np.random.default_rng(5)
    with Database() as db:
        db.load_table("e", {"v": rng.integers(0, 20, 200)})
        db.load_table("r", {"v": np.arange(20),
                            "rep": rng.integers(0, 2 ** 40, 20)})
        db.execute("create table g as select r.rep as rep from e, r "
                   "where e.v = r.v")
        stored = db.table("g").column("rep")
        assert stored.codes is not None
        for codes in (stored.codes, stored.take(np.arange(3)).codes,
                      db.table("r").encoded_column("rep").codes,
                      encode([3, 1, 2]).codes):
            with pytest.raises(ValueError, match="read-only"):
                codes[0] = 0
            with pytest.raises(ValueError, match="read-only"):
                codes += 1


def test_contraction_udfs_are_registered_immutable():
    """``axplusb`` over an encoded edge column costs one field
    multiplication per distinct vertex, and the same bits as per row."""
    from repro.core.udfs import register_udfs
    from repro.ff.gf2_64 import Gf2AffineMap

    rng = np.random.default_rng(7)
    reps = rng.integers(-(2 ** 62), 2 ** 62, 40)
    with Database() as db:
        register_udfs(db)
        db.load_table("e", {"v": rng.integers(0, 40, 1000)})
        db.load_table("r", {"v": np.arange(40), "rep": reps})
        db.execute("create table g as select r.rep as rep from e, r "
                   "where e.v = r.v")
        column = db.table("g").column("rep")
        assert column.codes is not None
        got = db.execute("select axplusb(12345, rep, -77) y from g").column("y")
        expected = Gf2AffineMap(12345, -77).apply(
            column.values.astype(np.uint64)).view(np.int64)
        assert np.array_equal(got, expected)
        # The other two, against themselves over a plain copy (GF(p) ids
        # must lie below p).
        db.load_table("small", {"v": np.arange(40),
                                "rep": rng.integers(0, 2 ** 31 - 2, 40)})
        db.execute("create table gs as select small.rep as rep from e, small "
                   "where e.v = small.v")
        for name, args, table in (("axbmodp", "5, rep, 7, 2147483647", "gs"),
                                  ("blowfish", "99, rep", "g")):
            assert db.table(table).column("rep").codes is not None
            encoded = db.execute(
                f"select {name}({args}) y from {table}").column("y")
            db.execute("drop table if exists plain")
            db.execute(
                f"create table plain as select rep + 0 as rep from {table}")
            assert db.table("plain").column("rep").codes is None
            plain = db.execute(
                f"select {name}({args}) y from plain").column("y")
            assert np.array_equal(encoded, plain)


def test_comparison_of_columns_sharing_a_dictionary_reads_codes_only():
    rng = np.random.default_rng(8)
    reps = rng.integers(-(2 ** 62), 2 ** 62, 30)
    with Database() as db:
        db.load_table("e", {"v1": rng.integers(0, 30, 500),
                            "v2": rng.integers(0, 30, 500)})
        db.load_table("r", {"v": np.arange(30), "rep": reps})
        db.execute("create table g as select a.rep x, b.rep y from e, "
                   "r as a, r as b where e.v1 = a.v and e.v2 = b.v")
        x, y = (db.table("g").column(name) for name in "xy")
        assert x.dictionary is y.dictionary is not None
        for op in ("=", "!=", "<", "<=", ">", ">="):
            got = db.execute(f"select x {op} y c from g").column("c")
            assert x._values is None and y._values is None, op
            expected = eval(f"a {'==' if op == '=' else op} b",
                            {"a": reps[db.table('e').column('v1').values],
                             "b": reps[db.table('e').column('v2').values]})
            assert np.array_equal(got, expected), op
