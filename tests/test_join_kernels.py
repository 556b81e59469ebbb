"""Property tests for the join kernels and the GROUP BY reducer.

The contract is absolute: :func:`join_indices` — the planned route's
kernel, called once over the whole probe side — returns **bit-identical**
row pairs to the independent plain-numpy reference
:func:`merge_join_indices`, whatever route the planner picks and however
many columns the key has; the GROUP BY reducer agrees with a per-group
Python loop, and multi-column grouping with :func:`sorted_group_rows`.

Every join kernel has one body, so one matrix pins all of them
(``test_kernel_matrix_bit_identical``): each kernel case with the shipped
size gates ("serial"), the cases that sort or search once more with the
plain numpy forms of those primitives ("plain-numpy"), and the dense cases
once more with no key range counted dense ("sparse-dispatch"), which sends
small keys and below-range misses through the ``sorted`` route.
``parallel_join_indices`` is a retired shell the benchmark still calls;
``test_retired_parallel_join_indices_is_join_indices`` pins it to
``join_indices`` on every case of the matrix.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sqlengine import Database, operators
from repro.sqlengine import executor as executor_module
from repro.sqlengine.mpp import SegmentPool
from repro.sqlengine.operators import (
    AGGREGATE_KINDS,
    CACHE_KERNEL_MIN_ROWS,
    JOIN_ROUTES,
    _reduce_slice,
    build_key_index,
    join_indices,
    join_rows,
    pad_left_outer,
    group_rows,
    left_join_indices,
    sorted_group_rows,
    spelled_out,
)
from repro.sqlengine.parallel import parallel_join_indices
from repro.sqlengine.types import FLOAT64, INT64, TEXT, Column

from .join_reference import merge_join_indices
from .sqlite_oracle import tee


def int_column(values, nulls=None) -> Column:
    return Column(np.array(values, dtype=np.int64), INT64,
                  None if nulls is None else np.asarray(nulls, dtype=bool))


keys = st.lists(
    st.one_of(
        st.integers(min_value=0, max_value=12),  # dense, duplicate-heavy
        st.integers(min_value=-(2 ** 62), max_value=2 ** 62),  # sparse
    ),
    min_size=0,
    max_size=60,
)


def _recording_notes(monkeypatch) -> list:
    """Every route note the executor's joins report, in order."""
    notes: list = []
    dispatch = executor_module.Executor._dispatch_join

    def recording(self, *args):
        pair = dispatch(self, *args)
        notes.append(args[-1][-1])
        return pair

    monkeypatch.setattr(executor_module.Executor, "_dispatch_join", recording)
    return notes


# ---------------------------------------------------------------------------
# joins
# ---------------------------------------------------------------------------


def assert_matches_reference(left_col, right_col, left_outer=False,
                             note=None, **indexes):
    """``join_indices`` against the plain-numpy sort-merge reference
    (``note`` receives the route's note)."""
    n_left = len(left_col)
    expected = merge_join_indices([left_col], [right_col])
    got = join_indices([left_col], [right_col], note=note, **indexes)
    if left_outer:
        expected = pad_left_outer(*expected, n_left)
        got = pad_left_outer(*got, n_left)
    assert np.array_equal(expected[0], got[0])
    assert np.array_equal(expected[1], got[1])


@given(keys, keys)
def test_join_bit_identical(left, right):
    assert_matches_reference(int_column(left), int_column(right))


@given(keys, keys)
def test_left_join_bit_identical(left, right):
    if not left:
        left = [0]
    assert_matches_reference(int_column(left), int_column(right),
                             left_outer=True)


#: The random inputs of the large join tests: one generator seed each.
SEEDS = [1, 2, 3, 4, 7]


@pytest.mark.parametrize("seed", SEEDS)
def test_join_large_random(seed):
    rng = np.random.default_rng(seed)
    left = int_column(rng.integers(0, 5000, 20_000))
    right = int_column(
        np.concatenate([rng.permutation(5000), rng.integers(0, 5000, 800)])
    )
    assert_matches_reference(left, right)


def test_join_over_null_bearing_keys():
    note: list = []
    assert_matches_reference(int_column([1, 2, 3], [False, True, False]),
                             int_column([2, 3, 4]), note=note)
    assert note == ["dense"]


def test_text_keyed_join():
    """Text keys take the no-index sorted route over their values."""
    db = Database(n_segments=4)
    db.execute("create table t (k text, v int64)")
    db.execute("insert into t values ('a', 1), ('b', 2), ('a', 3)")
    rows = db.execute(
        "select x.k, x.v, y.v from t as x, t as y where x.k = y.k"
    ).rows()
    assert sorted(rows) == [("a", 1, 1), ("a", 1, 3), ("a", 3, 1),
                            ("a", 3, 3), ("b", 2, 2)]


@given(keys, keys)
def test_indexed_probe_bit_identical(left, right):
    left_col, right_col = int_column(left), int_column(right)
    assert_matches_reference(left_col, right_col,
                             right_index=build_key_index(right_col.values))


@given(keys, keys)
def test_indexed_left_probe_bit_identical(left, right):
    if not left:
        left = [0]
    left_col, right_col = int_column(left), int_column(right)
    assert_matches_reference(left_col, right_col, left_outer=True,
                             right_index=build_key_index(right_col.values))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("unique_build", [True, False])
def test_indexed_probe_large_sparse(seed, unique_build):
    """Sparse 64-bit build keys force the sorted-index probe (the warm-loop
    shape)."""
    rng = np.random.default_rng(10 * seed + unique_build)
    build = rng.permutation(2 ** 62 // 7 * np.arange(1, 5001))
    if not unique_build:
        build = np.concatenate([build, build[:500]])
    probe = np.concatenate([
        build[rng.integers(0, build.shape[0], 20_000)],
        rng.integers(0, 2 ** 62, 2_000),  # misses
    ])
    left_col, right_col = int_column(probe), int_column(build)
    index = build_key_index(right_col.values)
    # Sparse and unsorted: no route reads the build side's uniqueness.
    assert index.is_unique is None
    note: list = []
    assert_matches_reference(left_col, right_col, note=note,
                             right_index=index)
    assert note == ["merge"]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("unique_build", [True, False])
def test_dense_probe_bit_identical(seed, unique_build):
    """Dense build-side spans take the direct-address probe, misses below
    and above the build side's range included."""
    rng = np.random.default_rng(30 * seed + unique_build)
    build = rng.permutation(5000)
    if not unique_build:
        build = np.concatenate([build, build[:700]])
    probe = np.concatenate([
        rng.integers(0, 5000, 20_000),
        rng.integers(-2000, 0, 1_000),   # below-range misses
        rng.integers(5000, 9000, 1_000),  # above-range misses
    ])
    left_col, right_col = int_column(probe), int_column(build)
    note: list = []
    assert_matches_reference(left_col, right_col, note=note,
                             right_index=build_key_index(right_col.values))
    assert note == ["dense"]


def _index_less_twin(build, query):
    """``query``'s rows on a database ``build`` made, and on its twin whose
    joins sort their own build sides."""
    indexed, index_less = build(), build()
    index_less._executor._stored_index = lambda frame, name: None
    return indexed.execute(query).rows(), index_less.execute(query).rows()


def test_executor_probes_a_warm_sparse_index(monkeypatch):
    """The warm-loop case: a cached build-side index over sparse keys is
    probed by binary search, and gives the index-less join's rows."""
    rng = np.random.default_rng(21)
    n = 4000
    reps = rng.permutation(np.arange(200) * (2 ** 53 + 12345))
    v1 = reps[rng.integers(0, 200, n)]
    v2 = rng.integers(0, 200, n)

    def build():
        db = Database(n_segments=4)
        db.load_table("e", {"v1": v1, "v2": v2})
        db.load_table("r", {"v": np.arange(200, dtype=np.int64),
                            "rep": reps})
        # Warm the index on the build side, as the round loop's first join
        # does.
        db.execute("select e.v2 from e, r where e.v1 = r.rep")
        notes.clear()
        return db

    notes = _recording_notes(monkeypatch)
    rows, expected = _index_less_twin(
        build, "select e.v1, r.v from e, r where e.v1 = r.rep")
    assert rows == expected
    assert notes == ["merge", "merge"]


def _warm_dense_twin(monkeypatch, build_keys):
    """``e.v1 = r.v`` over dense ids, ``r.v`` being ``build_keys`` behind
    a warm index, on a database and on its index-less twin: the route
    notes of both, then each one's rows."""
    rng = np.random.default_rng(27)
    n = 4000
    v1 = rng.integers(0, 300, n)
    v2 = rng.integers(0, 300, n)
    rep = rng.integers(0, 300, build_keys.shape[0])

    def build():
        db = Database(n_segments=4)
        db.load_table("e", {"v1": v1, "v2": v2})
        db.load_table("r", {"v": build_keys, "rep": rep})
        db.execute("select e.v1 from e, r where e.v2 = r.v")  # warm index
        assert db.stats.index_cache_misses == 1
        notes.clear()
        return db

    notes = _recording_notes(monkeypatch)
    rows, expected = _index_less_twin(
        build, "select e.v2, r.rep from e, r where e.v1 = r.v")
    return notes, rows, expected


def test_executor_probes_a_warm_dense_index(monkeypatch):
    """Dense vertex ids behind a warm build-side index, one id missing,
    take the direct-address probe, and give the index-less join's rows."""
    build_keys = np.delete(np.arange(301, dtype=np.int64), 150)
    notes, rows, expected = _warm_dense_twin(monkeypatch, build_keys)
    assert rows == expected
    assert notes == ["dense", "dense"]


def test_executor_reads_rows_off_a_warm_index_that_fills_its_range(
        monkeypatch):
    """Every id of the range, in order, behind a warm index: key ``k`` is
    build row ``k``, so the join builds no table (``offset``) and gives
    the rows of the index-less twin, which builds one."""
    notes, rows, expected = _warm_dense_twin(
        monkeypatch, np.arange(300, dtype=np.int64))
    assert rows == expected
    assert notes == ["offset", "dense"]


# -- join_rows: NULL-filtered sides and the identity left rows ---------------


#: Build-side shapes of the route cases -> (sparse keys, duplicate keys,
#: the build index handed over).
RUN_SHAPES = {
    "dense-unique": (False, False, False),
    "dense-runs": (False, True, False),
    "dense-offset": (False, False, True),
    "sorted-runs": (True, True, False),
    "sorted-unique": (True, False, False),
    "sorted-indexed-unique": (True, False, True),
    "sorted-indexed-runs": (True, True, True),
}


def _run_case_inputs(shape, nulls):
    """Probe and build columns (and the build index, when the route reads
    one) of build-side ``shape``; ``nulls`` names the sides with NULL
    keys.  Unique build sides hold every probe key, so a NULL-free probe
    matches every row once."""
    sparse, duplicates, indexed = RUN_SHAPES[shape]
    rng = np.random.default_rng(len(shape) + 7 * len(nulls))
    build = rng.permutation(100) * (2 ** 53 + 12345 if sparse else 1)
    if shape == "dense-offset":
        build = np.arange(100)
    if duplicates:
        build = np.concatenate([build, build[:20]])
    probe = build[rng.integers(0, build.shape[0], 300)]

    def side(values, name):
        return int_column(values, rng.random(values.shape[0]) < 0.2
                          if name in nulls else None)

    left, right = side(probe, "left"), side(build, "right")
    return left, right, build_key_index(build) if indexed else None


RUN_CASES = [(shape, nulls)
             for shape in ("dense-unique", "dense-runs", "sorted-runs",
                           "sorted-unique")
             for nulls in ("left", "right", "left+right")]
RUN_CASES += [("sorted-indexed-unique", "left"),
              ("sorted-indexed-runs", "left"), ("dense-offset", "left")]


@pytest.mark.parametrize("shape,nulls", RUN_CASES,
                         ids=[f"{k}-{n}" for k, n in RUN_CASES])
def test_join_rows_maps_filtered_rows_back(shape, nulls):
    """A side with NULL keys is joined over its non-NULL rows, and
    :func:`join_rows` maps the key positions back to rows; a probe whose
    every non-NULL row matched once returns exactly the surviving rows,
    the identity ``None`` only when none was filtered."""
    left, right, index = _run_case_inputs(shape, nulls)
    kind, l_idx, r_idx = join_rows([left], [right], right_index=index)
    assert kind == ("sorted" if shape.startswith("sorted") else shape)
    expected = merge_join_indices([left], [right])
    got = spelled_out(l_idx, r_idx)
    assert np.array_equal(got[0], expected[0])
    assert np.array_equal(got[1], expected[1])
    if not RUN_SHAPES[shape][1] and nulls == "left":
        assert np.array_equal(l_idx, np.flatnonzero(~left.mask))


#: Joins no row of which can match -> (probe keys, build keys, whether
#: the build side hands over an index).  ``None`` keys are NULL.
NO_KERNEL_CASES = {
    "empty-probe": ([], [1, 2, 3], False),
    "empty-build": ([1, 2, 3], [], False),
    "all-null-probe": ([None, None], [1, 2, 3], True),
    "all-null-build": ([1, 2, 3], [None, None], False),
}


@pytest.mark.parametrize("case", sorted(NO_KERNEL_CASES))
def test_join_rows_of_routes_without_a_kernel(case):
    """An empty or all-NULL side: the join takes the ``empty`` route, runs
    no kernel and returns no pair, and so does the reference."""
    probe, build, indexed = NO_KERNEL_CASES[case]

    def column(keys):
        nulls = [key is None for key in keys]
        return int_column([0 if key is None else key for key in keys],
                          nulls if any(nulls) else None)

    left, right = column(probe), column(build)
    index = build_key_index(right.values) if indexed else None
    kind, l_idx, r_idx = join_rows([left], [right], right_index=index)
    assert kind == "empty"
    assert l_idx.shape == r_idx.shape == (0,)
    assert merge_join_indices([left], [right])[0].shape == (0,)


# ---------------------------------------------------------------------------
# multi-column keys: one packed word per row, against the reference's own
# structured records and tuples
# ---------------------------------------------------------------------------

#: Value pools of one key column, by kind.  Values are drawn from a pool
#: so that keys repeat and match; the full-range pool's span overflows
#: 62 bits, so packing it ranks it, and two wide columns' spans multiply
#: past 2^62, so packing them ranks the packed prefix.
KEY_POOLS = {
    "dense": [0, 1, 2, 5, 7],
    "wide": [-(2 ** 40), 0, 7, 2 ** 40],
    "full-range": [-(2 ** 63), -(2 ** 62) - 3, -1, 0, 2 ** 62 + 5,
                   2 ** 63 - 1],
    "float": [0.0, -0.0, float("nan"), 1.5, -2.25],
    "text": ["", "a", "ab", "b", "\u00e9"],
}


def _key_column(kind, values, nulls):
    if kind == "text":
        column = Column(np.array(values, dtype=object), TEXT)
    else:
        column = Column.from_values(np.array(values))
    if any(nulls):
        column = Column(column.values, column.sql_type,
                        np.array(nulls, dtype=bool))
    return column


@st.composite
def composite_keys(draw, max_rows=30):
    """Two or three key columns of drawn kinds, over a probe side and a
    build side, with NULLs on either side."""
    kinds = draw(st.lists(st.sampled_from(sorted(KEY_POOLS)), min_size=2,
                          max_size=3))
    sides = []
    for _ in range(2):
        n = draw(st.integers(0, max_rows))
        columns = []
        for kind in kinds:
            values = draw(st.lists(st.sampled_from(KEY_POOLS[kind]),
                                   min_size=n, max_size=n))
            nulls = draw(st.lists(st.booleans().map(lambda b: b and
                                                    draw(st.booleans())),
                                  min_size=n, max_size=n))
            columns.append(_key_column(kind, values, nulls))
        sides.append(columns)
    return sides


@settings(max_examples=300, deadline=None)
@given(composite_keys())
def test_composite_join_matches_reference(sides):
    """``join_rows`` over two or three columns — dense, full-range int64,
    float with ±0.0 and NaN, text — with NULL keys on either side gives
    the reference's pairs, inner and left outer."""
    left, right = sides
    expected = merge_join_indices(left, right)
    got = spelled_out(*join_rows(left, right)[1:])
    assert np.array_equal(got[0], expected[0])
    assert np.array_equal(got[1], expected[1])
    n_left = len(left[0])
    padded = pad_left_outer(*expected, n_left)
    got = left_join_indices(left, right)
    assert np.array_equal(got[0], padded[0])
    assert np.array_equal(got[1], padded[1])


@settings(max_examples=300, deadline=None)
@given(composite_keys())
def test_composite_group_rows_matches_reference(sides):
    """``group_rows`` over the same keys — the packed word's stable order
    for NULL-free integer keys — gives ``sorted_group_rows``' order and
    group starts."""
    for columns in sides:
        expected = sorted_group_rows(columns)
        got = group_rows(columns)
        assert np.array_equal(got[0], expected[0])
        assert np.array_equal(got[1], expected[1])


@pytest.mark.parametrize("n_columns", [1, 2])
def test_signed_zeros_and_nans_match_in_joins(n_columns):
    """``-0.0 = 0.0`` and ``NaN = NaN`` match in a join, keyed on the float
    alone or beside an integer column."""
    nan = float("nan")
    probe = [Column.from_values(np.array([0.0, nan, -0.0, 2.0]))]
    build = [Column.from_values(np.array([nan, -0.0, 3.0]))]
    if n_columns == 2:
        probe.append(Column.from_values(np.array([4, 4, 4, 4])))
        build.append(Column.from_values(np.array([4, 4, 4])))
    l_idx, r_idx = join_indices(probe, build)
    assert list(zip(l_idx.tolist(), r_idx.tolist())) == [
        (0, 1), (1, 0), (2, 1)]
    expected = merge_join_indices(probe, build)
    assert np.array_equal(l_idx, expected[0])
    assert np.array_equal(r_idx, expected[1])


def test_composite_keys_whose_spans_overflow_rank_jointly():
    """Full-range int64 columns overflow every offset packing: each side's
    words are ranks over both sides, so equal rows meet across sides and
    order as their values do."""
    extremes = np.array([2 ** 63 - 1, -(2 ** 63), 0, 2 ** 63 - 1])
    other = np.array([-(2 ** 63), 2 ** 63 - 1, 0, -(2 ** 63)])
    left, right = operators.pack_keys([[extremes, other],
                                       [other[:3], extremes[:3]]])
    # Each column ranks as min 0, zero 1, max 2: a row's word is 3a + b.
    assert left.tolist() == [6, 2, 4, 6]
    assert right.tolist() == [2, 6, 4]
    # Two offsets fold to ~2^61, and a third column would carry the words
    # past 2^62: the packed prefix is ranked first, so the words keep the
    # rows' lexicographic order.
    columns = [np.array([2 ** 31, 0, 2 ** 31, 0, 2 ** 31]),
               np.array([0, 2 ** 30, 2 ** 30, 0, 0]),
               np.array([4, 0, 1, 3, 4])]
    (words,) = operators.pack_keys([columns])
    assert np.argsort(words, kind="stable").tolist() == [3, 1, 0, 4, 2]
    assert words[0] == words[4] and len(set(words.tolist())) == 4


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def _loop_reduce(kind, keys, values, nulls):
    """The reducer's reference: one Python loop per group, in key order,
    giving ``(value, is NULL)`` per group."""
    out = []
    for key in sorted(set(keys)):
        rows = [i for i, k in enumerate(keys) if k == key]
        valid = [values[i] for i in rows if not nulls[i]]
        if kind == "count*":
            out.append((len(rows), False))
        elif kind == "count":
            out.append((len(valid), False))
        elif not valid:
            out.append((None, True))
        elif kind in ("min", "max"):
            out.append(((min if kind == "min" else max)(valid), False))
        elif kind == "sum":
            out.append((sum(valid), False))
        else:
            out.append((sum(valid) / len(valid), False))
    return out


@pytest.mark.parametrize("kind", sorted(AGGREGATE_KINDS))
@given(
    rows=st.lists(
        st.tuples(st.integers(0, 5), st.integers(-1000, 1000), st.booleans()),
        min_size=1, max_size=40),
    floats=st.booleans(), masked=st.booleans(), pregrouped=st.booleans(),
)
def test_reducer_agrees_with_python_loop(kind, rows, floats, masked,
                                         pregrouped):
    """``_reduce_slice`` is the one reducer every GROUP BY calls, so its
    reference shares nothing with it: a per-group loop — every kind, int and float arguments, with and
    without a null mask (all-NULL groups included), grouped through an
    order or already lying group by group (``order=None``)."""
    if pregrouped:
        rows = sorted(rows, key=lambda row: row[0])
    keys = [key for key, _, _ in rows]
    # Eighths add exactly in float64, whatever the order of the additions.
    values = [value / 8.0 if floats else value for _, value, _ in rows]
    nulls = [null and masked for _, _, null in rows]
    expected = _loop_reduce(kind, keys, values, nulls)

    order = np.argsort(np.array(keys), kind="stable")
    grouped_keys = [keys[i] for i in order]
    starts = np.array([g for g in range(len(rows))
                       if g == 0 or grouped_keys[g] != grouped_keys[g - 1]])
    row_counts = np.diff(np.append(starts, len(rows)))
    argument = None if kind == "count*" else Column(
        np.array(values, dtype=np.float64 if floats else np.int64),
        FLOAT64 if floats else INT64,
        np.array(nulls) if masked else None,
    )
    result = _reduce_slice(kind, argument, None if pregrouped else order,
                           starts, row_counts)
    got, got_nulls = result.values, result.mask
    if kind in ("count*", "count") or (kind == "sum" and not floats):
        assert got.dtype == np.int64 and result.sql_type == INT64
    elif kind in ("min", "max"):
        assert got.dtype == argument.values.dtype
        assert result.sql_type == argument.sql_type
    else:
        assert got.dtype == np.float64 and result.sql_type == FLOAT64
    assert (got_nulls is None) == (not any(null for _, null in expected))
    for group, (value, null) in enumerate(expected):
        if null:
            assert got_nulls[group]
        else:
            assert got_nulls is None or not got_nulls[group]
            assert got[group] == value


#: Every aggregate kind, NULLs in each argument (a CASE without ELSE).
_GROUP_ITEMS = (
    "count(*) n, count(case when keep = 1 then i end) c, "
    "min(case when keep = 1 then i end) lo, max(i) hi, "
    "min(f) flo, max(case when keep = 1 then f end) fhi"
)
_SUM_ITEMS = "sum(case when keep = 1 then i end) s, avg(f) a"


@pytest.mark.parametrize("n_keys", [1, 7, 200])
def test_group_by_layouts_agree_with_python_loop(n_keys, monkeypatch):
    """A GROUP BY reads its layout off its key: one NULL-free integer key
    that arrives sorted — stored so, or gathered so by a join — is reduced
    in the runs it lies in, under every aggregate kind; any other dense
    key by direct addressing (count, min and max only); any other key —
    sparse, or sorted but NULL-bearing — through a sort.  Every layout
    gives the per-group loop's values."""
    layouts: list = []

    def spying(layout, real):
        def spy(key):
            found = real(key)
            if found is not None:
                layouts.append(layout)
            return found
        return spy

    group_kernel = executor_module.Executor._group_kernel

    def sorting(self, key_columns):
        layouts.append("sorted")
        return group_kernel(self, key_columns)

    monkeypatch.setattr(executor_module, "run_starts",
                        spying("runs", executor_module.run_starts))
    monkeypatch.setattr(executor_module, "direct_group_rows",
                        spying("direct", executor_module.direct_group_rows))
    monkeypatch.setattr(executor_module.Executor, "_group_kernel", sorting)
    rng = np.random.default_rng(n_keys)
    n = 1500
    keys = rng.integers(0, n_keys, n)
    ints = rng.integers(-100, 100, n)
    floats = rng.integers(-800, 800, n) / 8.0  # eighths add exactly
    keep = (rng.random(n) >= 0.2).astype(np.int64)
    db = Database(n_segments=4)
    db.load_table("t", {"k": keys, "s": keys * (2 ** 40) + 3, "i": ints,
                        "f": floats, "keep": keep})
    # The same rows stored in key order, and the keys once each.
    by_key = np.argsort(keys, kind="stable")
    db.load_table("o", {"k": keys[by_key], "i": ints[by_key],
                        "f": floats[by_key], "keep": keep[by_key]})
    db.load_table("u", {"k": np.unique(keys)})

    dropped = (keep == 0).tolist()
    never = [False] * n
    columns = [
        _loop_reduce("count*", keys.tolist(), ints.tolist(), never),
        _loop_reduce("count", keys.tolist(), ints.tolist(), dropped),
        _loop_reduce("min", keys.tolist(), ints.tolist(), dropped),
        _loop_reduce("max", keys.tolist(), ints.tolist(), never),
        _loop_reduce("min", keys.tolist(), floats.tolist(), never),
        _loop_reduce("max", keys.tolist(), floats.tolist(), dropped),
    ]
    sums = [
        _loop_reduce("sum", keys.tolist(), ints.tolist(), dropped),
        _loop_reduce("avg", keys.tolist(), floats.tolist(), never),
        [(len({int(i) for k, i, kept in zip(keys, ints, keep)
                if k == key and kept}), False)
         for key in sorted(set(keys.tolist()))],
    ]

    def expected(reduced, key_of=int):
        return [(key_of(key), *(column[g][0] for column in reduced))
                for g, key in enumerate(sorted(set(keys.tolist())))]

    sorted_by_one_key = "runs" if n_keys == 1 else None
    for sql, layout, key_of in (
        (f"select k, {_GROUP_ITEMS} from t group by k", "direct", int),
        (f"select s, {_GROUP_ITEMS} from t group by s", "sorted",
         lambda k: k * 2 ** 40 + 3),
        # A stored table in key order.
        (f"select k, {_GROUP_ITEMS} from o group by k", "runs", int),
        # A join's gather of the build side's unique keys along a probe
        # side in key order: no stored table is behind the key.
        (f"select u.k, {_GROUP_ITEMS} from o, u where o.k = u.k "
         f"group by u.k", "runs", int),
    ):
        layouts.clear()
        skipped = db.stats.group_sorts_skipped
        rows = db.execute(sql).rows()
        layout = sorted_by_one_key or layout
        assert layouts == [layout], sql
        assert db.stats.group_sorts_skipped == skipped + (layout == "runs")
        assert sorted(rows) == expected(columns, key_of), sql
    # sum, avg and count(distinct): never direct; in place when sorted.
    sum_items = f"{_SUM_ITEMS}, count(distinct case when keep = 1 then i end) d"
    for table, layout in (("t", sorted_by_one_key or "sorted"),
                          ("o", "runs")):
        layouts.clear()
        rows = db.execute(f"select k, {sum_items} from {table} "
                          f"group by k").rows()
        assert layouts == [layout], table
        assert sorted(rows) == expected(sums)
    # A sorted key with a NULL (key 0's rows, stored first) is sorted: its
    # NULL rows are one group, as in the loop, whose NULL key goes first.
    db.execute("create table z as select nullif(k, 0) k, i, f, keep from o")
    layouts.clear()
    rows = db.execute(f"select k, {_GROUP_ITEMS} from z group by k").rows()
    assert layouts == ["sorted"]
    assert sorted(rows, key=lambda row: (row[0] is not None, row[0] or 0)) \
        == expected(columns, lambda k: k or None)


@given(st.lists(st.integers(min_value=-5, max_value=5), min_size=0,
                max_size=50))
def test_group_by_small_inputs_agree_with_python_loop(values):
    """Few rows, negative keys, no rows at all: the direct-address layout
    (whose slots start at the smallest key) against the per-group loop."""
    db = Database(n_segments=4)
    db.load_table("t", {"k": np.array(values, dtype=np.int64),
                        "i": np.arange(len(values), dtype=np.int64)})
    rows = db.execute("select k, count(*) c, min(i) m from t "
                      "group by k").rows()
    never = [False] * len(values)
    counts = _loop_reduce("count*", values, values, never)
    minima = _loop_reduce("min", values, list(range(len(values))), never)
    assert sorted(rows) == [
        (key, count, low) for key, (count, _), (low, _)
        in zip(sorted(set(values)), counts, minima)]


# ---------------------------------------------------------------------------
# executor integration: the no-index route must be invisible in results
# ---------------------------------------------------------------------------


QUERIES = [
    "select e.v1, r.rep from e, r where e.v1 = r.v",
    # GROUP BY over a join: it reduces the join's materialised output.
    "select e.v1, count(*) c, min(r.rep) lo, max(e.v2) hi, sum(e.v2) s "
    "from e, r where e.v2 = r.v group by e.v1",
    "select l.v, coalesce(r.rep, 0 - 1) rep from l "
    "left outer join r on (l.rep = r.v)",
    "select distinct e.v1, r.rep from e, r where e.v2 = r.v and e.v1 != r.rep",
]


@pytest.mark.parametrize("query", QUERIES)
def test_executor_index_less_joins_identical(query):
    """A join that sorts its own build side returns the indexed join's
    rows in the same order, and sqlite's rows."""
    def build():
        db = tee(Database(n_segments=4))
        rng = np.random.default_rng(99)
        n = 2500
        db.load_table("e", {"v1": rng.integers(0, 200, n),
                            "v2": rng.integers(0, 200, n)})
        db.load_table("r", {"v": np.arange(200, dtype=np.int64),
                            "rep": rng.integers(0, 1 << 40, 200)})
        db.load_table("l", {"v": np.arange(50, dtype=np.int64),
                            "rep": rng.integers(0, 400, 50)})
        return db

    rows, expected = _index_less_twin(build, query)
    assert rows == expected


def test_left_join_over_null_probe_keys_keeps_every_probe_row(monkeypatch):
    """A LEFT JOIN whose probe keys are partly NULL and otherwise all
    found: the kernel matches the non-NULL rows once each — by offset,
    ``r.v`` being every key of its range in order — ``run`` maps them back
    to their rows, and the NULL-keyed rows come back null-extended —
    sqlite's rows."""
    db = tee(Database(n_segments=4))
    db.execute("create table l (v int64, rep int64)")
    db.execute("insert into l values " + ", ".join(
        f"({i}, {'null' if i % 5 == 0 else i % 7})" for i in range(60)))
    db.execute("create table r (v int64, w int64)")
    db.execute("insert into r values " + ", ".join(
        f"({k}, {k * 10})" for k in range(7)))
    notes = _recording_notes(monkeypatch)
    rows = db.execute(
        "select l.v, r.w from l left outer join r on (l.rep = r.v)").rows()
    assert notes == ["offset"]
    assert sorted(v for v, _ in rows) == list(range(60))
    assert sorted(v for v, w in rows if w is None) == list(range(0, 60, 5))


def test_group_by_over_join_bit_identical_with_and_without_indexes():
    """A GROUP BY reduces its join's output in the join's row order, which
    the index-less route reproduces: float sums and averages match to the
    bit."""
    query = ("select e.v1, count(*) c, sum(e.f) s, avg(e.f) a, "
             "min(r.rep) lo, max(case when e.v2 > 50 then e.f end) hi "
             "from e, r where e.v2 = r.v group by e.v1")

    def build():
        db = Database(n_segments=4)
        rng = np.random.default_rng(41)
        n = 4000
        db.load_table("e", {"v1": rng.integers(0, 150, n),
                            "v2": rng.integers(0, 200, n),
                            "f": rng.normal(size=n)})
        db.load_table("r", {"v": np.arange(200, dtype=np.int64),
                            "rep": rng.integers(0, 1 << 40, 200)})
        return db

    rows, expected = _index_less_twin(build, query)
    assert rows == expected


def test_rc_end_to_end_index_less_identical():
    from repro.core import RandomisedContraction
    from repro.graphs import gnm_random_graph
    from repro.graphs.io import load_edges_into

    edges = gnm_random_graph(500, 900, np.random.default_rng(17))

    def run(indexed):
        db = Database(n_segments=4)
        if not indexed:
            db._executor._stored_index = lambda frame, name: None
        load_edges_into(db, "edges", edges)
        result = RandomisedContraction().run(db, "edges", seed=13)
        vertices, labels = result.labels(db)
        order = np.argsort(vertices, kind="stable")
        return vertices[order], labels[order], db.stats

    v_on, l_on, stats_on = run(True)
    v_off, l_off, stats_off = run(False)
    assert np.array_equal(v_on, v_off)
    assert np.array_equal(l_on, l_off)
    assert stats_on.index_cache_hits > 0
    assert stats_off.index_cache_hits == stats_off.index_cache_misses == 0


# ---------------------------------------------------------------------------
# the bit-identity matrix: every kernel, every form of its primitives
# ---------------------------------------------------------------------------


def _join_case(dense, unique_build, indexed=True, left_outer=False,
               encoded=False, misses=True, sorted_build=False):
    """One join of the matrix, run through ``join`` — a function of
    ``(left keys, right keys, right index, note)`` such as
    ``join_indices`` — and held against ``merge_join_indices``, which sees
    no index at all.

    The probe side is 20 000 rows drawn from the build side followed by
    3 000 misses; ``misses=False`` drops the misses, and every row
    matches.

    ``indexed`` hands the build side's ``KeyIndex`` over (a stored
    table's cached one; without it the route sorts for itself).
    ``encoded`` gives both sides the dictionary-encoded form over one
    shared dictionary, of which the build side holds a part: the probes
    absent from it are codes without a build row.  The join reads codes
    only: neither side's values are gathered.  ``sorted_build`` stores
    the build side in key order: a unique dense one then fills its key
    range, and an encoded one fills its dictionary unless misses widen
    it."""
    def case(join, note):
        rng = np.random.default_rng(17 * dense + unique_build)
        if dense:
            build = rng.permutation(5000)
        else:
            build = rng.permutation(2 ** 62 // 7 * np.arange(1, 5001))
        if not unique_build:
            build = np.concatenate([build, build[:500]])
        probe = build[rng.integers(0, build.shape[0], 20_000)]
        if sorted_build:
            build = np.sort(build)
        if misses:
            probe = np.concatenate([
                probe,
                rng.integers(-2000, 0, 1_000),    # below-range misses
                rng.integers(5001, 9000, 2_000),  # above-range / absent misses
            ])
        # Big enough for the bucketed sorted_lookup.
        assert probe.shape[0] >= CACHE_KERNEL_MIN_ROWS
        left_col, right_col = int_column(probe), int_column(build)
        if encoded:
            dictionary = np.unique(np.concatenate([probe, build]))
            left_col, right_col = (
                Column.encoded(np.searchsorted(dictionary, values),
                               dictionary)
                for values in (probe, build))
            assert np.array_equal(
                right_col.dictionary[right_col.codes], build)
        right_index = build_key_index(right_col.storage,
                                      right_col.dictionary) \
            if indexed else None
        # Only a plain, unsorted build side may leave uniqueness unknown.
        assert right_index is None or right_index.is_unique == unique_build \
            or (right_index.is_unique is None
                and not (encoded or sorted_build))
        expected = merge_join_indices([int_column(probe)],
                                      [int_column(build)])
        got = join([left_col], [right_col], right_index, note)
        if encoded:
            assert left_col._values is None and right_col._values is None
        if left_outer:
            expected = pad_left_outer(*expected, len(left_col))
            got = pad_left_outer(*got, len(left_col))
        return expected, got
    return case


#: id -> (case, the route it must take).
KERNEL_CASES = {
    "sorted-runs-no-index": (
        _join_case(False, False, indexed=False), "sorted"),
    "sorted-unique-no-index": (
        _join_case(False, True, indexed=False), "sorted"),
    "left-sorted-unique-no-index": (
        _join_case(False, True, indexed=False, left_outer=True), "sorted"),
    "left-dense-runs-no-index": (
        _join_case(True, False, indexed=False, left_outer=True),
        "dense-runs"),
    "sorted-unique-probe": (_join_case(False, True), "sorted"),
    "sorted-runs-probe": (_join_case(False, False), "sorted"),
    # Codes over one shared dictionary — the build side a strict subset
    # of it (the misses are the rest), holding duplicates, or filling it
    # in order — with and without the build index, inner and LEFT.
    "codes-dense-probe": (
        _join_case(False, True, encoded=True), "dense-unique"),
    "codes-dense-no-index-probe": (
        _join_case(False, True, indexed=False, encoded=True),
        "dense-unique"),
    "left-codes-dense-probe": (
        _join_case(False, True, encoded=True, left_outer=True),
        "dense-unique"),
    "left-codes-dense-no-index-probe": (
        _join_case(False, True, indexed=False, encoded=True,
                   left_outer=True), "dense-unique"),
    "codes-runs-probe": (
        _join_case(False, False, encoded=True), "dense-runs"),
    "codes-runs-no-index-probe": (
        _join_case(False, False, indexed=False, encoded=True),
        "dense-runs"),
    "left-codes-runs-probe": (
        _join_case(False, False, encoded=True, left_outer=True),
        "dense-runs"),
    "left-codes-runs-no-index-probe": (
        _join_case(False, False, indexed=False, encoded=True,
                   left_outer=True), "dense-runs"),
    "dense-unique-probe": (_join_case(True, True), "dense-unique"),
    "dense-bucket-probe": (_join_case(True, False), "dense-runs"),
    "left-dense-probe": (
        _join_case(True, True, left_outer=True), "dense-unique"),
    "left-sorted-probe": (
        _join_case(False, False, left_outer=True), "sorted"),
    # Every probe row matches once: identity left rows.
    "dense-unique-all-match": (
        _join_case(True, True, misses=False), "dense-unique"),
    "sorted-unique-all-match": (
        _join_case(False, True, misses=False), "sorted"),
    "sorted-unique-no-index-all-match": (
        _join_case(False, True, indexed=False, misses=False), "sorted"),
    "left-codes-all-match": (
        _join_case(False, True, encoded=True, left_outer=True,
                   misses=False), "dense-unique"),
    # A build side stored in key order that fills its key range: no table.
    "dense-offset-probe": (
        _join_case(True, True, sorted_build=True), "dense-offset"),
    "left-dense-offset-probe": (
        _join_case(True, True, sorted_build=True, left_outer=True),
        "dense-offset"),
    "dense-offset-all-match": (
        _join_case(True, True, sorted_build=True, misses=False),
        "dense-offset"),
    "dense-offset-no-index": (
        _join_case(True, True, sorted_build=True, indexed=False),
        "dense-unique"),
    "dense-sorted-bucket-probe": (
        _join_case(True, False, sorted_build=True), "dense-runs"),
    "sorted-runs-stored-sorted": (
        _join_case(False, False, sorted_build=True), "sorted"),
    "codes-offset-probe": (
        _join_case(False, True, encoded=True, sorted_build=True,
                   misses=False), "dense-offset"),
    "left-codes-offset-probe": (
        _join_case(False, True, encoded=True, sorted_build=True,
                   left_outer=True, misses=False), "dense-offset"),
    "codes-offset-no-index": (
        _join_case(False, True, indexed=False, encoded=True,
                   sorted_build=True, misses=False), "dense-unique"),
    "left-codes-offset-no-index": (
        _join_case(False, True, indexed=False, encoded=True,
                   sorted_build=True, left_outer=True, misses=False),
        "dense-unique"),
    # The misses are dictionary entries no build row holds: holes.
    "codes-sorted-with-holes": (
        _join_case(False, True, encoded=True, sorted_build=True),
        "dense-unique"),
}

#: The cases that sort (``stable_argsort``) or search (``sorted_lookup``)
#: somewhere: an index build, a route's own sort or a sorted probe.
PLAIN_NUMPY_CASES = [
    "sorted-runs-no-index", "sorted-unique-no-index",
    "left-dense-runs-no-index", "sorted-unique-probe", "sorted-runs-probe",
    "codes-runs-probe", "dense-bucket-probe", "left-sorted-probe",
    "sorted-unique-all-match",
]

#: The dense cases -> the route each takes when no key range is dense.
SPARSE_DISPATCH_ROUTES = {
    "left-dense-runs-no-index": "sorted",
    "dense-unique-probe": "sorted",
    "dense-bucket-probe": "sorted",
    "left-dense-probe": "sorted",
    "dense-unique-all-match": "sorted",
    # The offset route allocates nothing: no span limit bounds it.
    "dense-offset-probe": "dense-offset",
    "dense-offset-no-index": "sorted",
    # Codes address their dictionary whatever the span limit says.
    "codes-dense-probe": "dense-unique",
    "codes-runs-no-index-probe": "dense-runs",
    "codes-offset-probe": "dense-offset",
}

MATRIX = ([(kernel, "serial") for kernel in KERNEL_CASES]
          + [(kernel, "plain-numpy") for kernel in PLAIN_NUMPY_CASES]
          + [(kernel, "sparse-dispatch") for kernel in SPARSE_DISPATCH_ROUTES])


def _run_case(case, join=join_indices):
    """Run one matrix case against its reference; returns the route note."""
    note: list = []
    reference, result = case(join, note)
    assert len(reference) == len(result)
    for expected, got in zip(reference, result):
        assert got.dtype == expected.dtype
        assert np.array_equal(expected, got)
    return note


@pytest.mark.parametrize(
    "kernel,column", MATRIX, ids=[f"{k}-{c}" for k, c in MATRIX])
def test_kernel_matrix_bit_identical(kernel, column, monkeypatch):
    case, route = KERNEL_CASES[kernel]
    primitives: list = []
    if column == "plain-numpy":
        monkeypatch.setattr(operators, "CACHE_KERNEL_MIN_ROWS", 1 << 62)
        for name in ("stable_argsort", "sorted_lookup"):
            def spy(*args, _real=getattr(operators, name), _name=name,
                    **kwargs):
                primitives.append(_name)
                return _real(*args, **kwargs)
            monkeypatch.setattr(operators, name, spy)
    elif column == "sparse-dispatch":
        monkeypatch.setattr(operators, "DENSE_SPAN_FACTOR", 0)
        monkeypatch.setattr(operators, "DENSE_SPAN_FLOOR", 0)
        route = SPARSE_DISPATCH_ROUTES[kernel]
    assert _run_case(case) == [JOIN_ROUTES[route]]
    if column == "plain-numpy":
        assert primitives  # the case did sort or search


@pytest.mark.parametrize("kernel", sorted(KERNEL_CASES))
def test_retired_parallel_join_indices_is_join_indices(kernel):
    """The retired entry point ``perf/bench.py`` still calls returns
    ``join_indices``' rows and note, whatever pool it is handed."""
    case, route = KERNEL_CASES[kernel]
    pool = SegmentPool(4)

    def retired(left, right, right_index, note):
        return parallel_join_indices(left, right, pool, note, right_index)

    serial_note, retired_note = [], []
    _, serial = case(join_indices, serial_note)
    _, got = case(retired, retired_note)
    assert retired_note == serial_note == [JOIN_ROUTES[route]]
    for expected, pair in zip(serial, got):
        assert pair.dtype == expected.dtype
        assert np.array_equal(expected, pair)


@pytest.mark.parametrize("kernel", ("dense-sorted-bucket-probe",
                                    "sorted-runs-stored-sorted"))
def test_sorted_indexed_build_side_expands_through_no_order(kernel,
                                                            monkeypatch):
    """A build side its index shows stored sorted, holding duplicate keys,
    is its own sorted order: ``dense-runs`` and ``sorted`` both expand
    its runs at positions that are its rows, gathered through no order
    array — and the matrix case's pairs are the reference's."""
    orders = []
    expand_runs = operators._expand_runs

    def recording(first, counts, order):
        orders.append(order)
        return expand_runs(first, counts, order)

    monkeypatch.setattr(operators, "_expand_runs", recording)
    case, route = KERNEL_CASES[kernel]
    assert _run_case(case) == [JOIN_ROUTES[route]]
    assert orders == [None]


#: Matrix cases over a unique build side -> whether every probe row
#: matches.
IDENTITY_PROBES = {
    "dense-unique-probe": False,
    "sorted-unique-probe": False,
    "codes-dense-probe": False,
    "left-dense-probe": False,
    "dense-unique-all-match": True,
    "sorted-unique-all-match": True,
    "sorted-unique-no-index": False,
    "sorted-unique-no-index-all-match": True,
    "left-codes-all-match": True,
    "dense-offset-probe": False,
    "dense-offset-all-match": True,
    "codes-offset-probe": True,
    "codes-offset-no-index": True,
}


@pytest.mark.parametrize("kernel", sorted(IDENTITY_PROBES))
def test_fully_matching_probes_return_identity_left_rows(kernel,
                                                         monkeypatch):
    """A probe whose every row found its one build row returns ``None``
    left rows, and one with a miss never does; the matrix case's pairs
    (held against the reference by ``_run_case``) show the identity is
    the right answer."""
    identities = []
    join = operators.join_rows

    def recording_join(*args):
        kind, l_idx, r_idx = join(*args)
        identities.append(l_idx is None)
        return kind, l_idx, r_idx

    monkeypatch.setattr(operators, "join_rows", recording_join)
    case, _ = KERNEL_CASES[kernel]
    _run_case(case)
    assert identities == [IDENTITY_PROBES[kernel]]
