"""Property tests for the segment-parallel kernels.

The contract is absolute: a join must return **bit-identical** row pairs
at every fan-out — :func:`join_indices` (the route's kernel called once)
and :func:`parallel_join_indices` (the same kernel over one chunk per
segment) — because the executor switches between them purely on size and
pool width.  Joins are checked against the independent plain-numpy
reference :func:`merge_join_indices`; the GROUP BY reducer against a
per-group Python loop.  These tests force a multi-worker pool
even on single-core machines so the pool code path (chunking, shared
inputs, recombination) is always exercised.

Every join kernel has one body that the direct call and the pool's
threads both run, so one matrix — kernel x {fan-out 1, and fan-out 4, 3
and 7 on a four-thread pool} — pins the bit-identity of all of them
(``test_kernel_matrix_bit_identical``): four chunks split the probe side
evenly, three and seven put chunk boundaries elsewhere in it.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sqlengine import Database
from repro.sqlengine.mpp import SegmentPool
from repro.sqlengine.operators import (
    CACHE_KERNEL_MIN_ROWS,
    JOIN_ROUTES,
    JoinRoute,
    build_key_index,
    join_indices,
    pad_left_outer,
)
from repro.sqlengine.parallel import (
    AGGREGATE_KINDS,
    AggregateSpec,
    _reduce_slice,
    parallel_join_indices,
)
from repro.sqlengine.types import FLOAT64, INT64, Column

from .join_reference import merge_join_indices


POOL = SegmentPool(4, max_workers=4)


def int_column(values) -> Column:
    return Column(np.array(values, dtype=np.int64), INT64)


keys = st.lists(
    st.one_of(
        st.integers(min_value=0, max_value=12),  # dense, duplicate-heavy
        st.integers(min_value=-(2 ** 62), max_value=2 ** 62),  # sparse
    ),
    min_size=0,
    max_size=60,
)


# ---------------------------------------------------------------------------
# joins
# ---------------------------------------------------------------------------


def assert_every_fan_out_matches_reference(
    left_col, right_col, pool, left_outer=False, note=None, **indexes
):
    """Fan-out 1 and fan-out ``pool.n_segments`` against the plain-numpy
    sort-merge reference (``note`` receives the pool run's route)."""
    n_left = len(left_col)
    expected = merge_join_indices([left_col], [right_col])
    serial = join_indices([left_col], [right_col], **indexes)
    chunked = parallel_join_indices([left_col], [right_col], pool, note,
                                    **indexes)
    if left_outer:
        expected = pad_left_outer(*expected, n_left)
        serial = pad_left_outer(*serial, n_left)
        chunked = pad_left_outer(*chunked, n_left)
    for got in (serial, chunked):
        assert np.array_equal(expected[0], got[0])
        assert np.array_equal(expected[1], got[1])


@given(keys, keys)
def test_parallel_join_bit_identical(left, right):
    assert_every_fan_out_matches_reference(
        int_column(left), int_column(right), POOL)


@given(keys, keys)
def test_parallel_left_join_bit_identical(left, right):
    if not left:
        left = [0]
    assert_every_fan_out_matches_reference(
        int_column(left), int_column(right), POOL, left_outer=True)


@pytest.mark.parametrize("n_segments", [1, 2, 3, 4, 7])
def test_parallel_join_large_random(n_segments):
    pool = SegmentPool(n_segments, max_workers=4)
    rng = np.random.default_rng(n_segments)
    left = int_column(rng.integers(0, 5000, 20_000))
    right = int_column(
        np.concatenate([rng.permutation(5000), rng.integers(0, 5000, 800)])
    )
    assert_every_fan_out_matches_reference(left, right, pool)


def test_parallel_join_falls_back_on_unsupported_shapes():
    masked = Column(np.array([1, 2, 3], dtype=np.int64), INT64,
                    np.array([False, True, False]))
    note: list = []
    assert_every_fan_out_matches_reference(masked, int_column([2, 3, 4]),
                                           POOL, note=note)
    assert note == ["dense"]  # a pool cannot chunk NULL-bearing keys


def test_text_keyed_join_runs_at_fan_out_one(monkeypatch):
    """Text keys are not a shape a pool chunks: on a four-worker database
    with the size gate off, a text-keyed join runs once, whole, and
    returns the one-worker rows."""
    import repro.sqlengine.executor as executor_module

    monkeypatch.setattr(executor_module, "PARALLEL_MIN_ROWS", 1)

    def run(workers):
        db = Database(n_segments=4, pool_workers=workers)
        db.execute("create table t (k text, v int64)")
        db.execute("insert into t values ('a', 1), ('b', 2), ('a', 3)")
        rows = db.execute(
            "select x.k, x.v, y.v from t as x, t as y where x.k = y.k"
        ).rows()
        partitions = db.stats.parallel_partitions
        db.close()
        return rows, partitions

    rows, partitions = run(4)
    assert partitions == 0
    assert (rows, partitions) == run(1)
    assert sorted(rows) == [("a", 1, 1), ("a", 1, 3), ("a", 3, 1),
                            ("a", 3, 3), ("b", 2, 2)]


@given(keys, keys)
def test_parallel_indexed_probe_bit_identical(left, right):
    left_col, right_col = int_column(left), int_column(right)
    assert_every_fan_out_matches_reference(
        left_col, right_col, POOL,
        right_index=build_key_index(right_col.values))


@given(keys, keys)
def test_parallel_indexed_left_probe_bit_identical(left, right):
    if not left:
        left = [0]
    left_col, right_col = int_column(left), int_column(right)
    assert_every_fan_out_matches_reference(
        left_col, right_col, POOL, left_outer=True,
        right_index=build_key_index(right_col.values))


@pytest.mark.parametrize("n_segments", [1, 2, 3, 4, 7])
@pytest.mark.parametrize("unique_build", [True, False])
def test_parallel_indexed_probe_large_sparse(n_segments, unique_build):
    """Sparse 64-bit build keys force the sorted-index probe (the warm-loop
    shape); chunked output must match the one-chunk probe exactly."""
    pool = SegmentPool(n_segments, max_workers=4)
    rng = np.random.default_rng(10 * n_segments + unique_build)
    build = rng.permutation(2 ** 62 // 7 * np.arange(1, 5001))
    if not unique_build:
        build = np.concatenate([build, build[:500]])
    probe = np.concatenate([
        build[rng.integers(0, build.shape[0], 20_000)],
        rng.integers(0, 2 ** 62, 2_000),  # misses
    ])
    left_col, right_col = int_column(probe), int_column(build)
    index = build_key_index(right_col.values)
    assert index.is_unique == unique_build
    note: list = []
    assert_every_fan_out_matches_reference(left_col, right_col, pool,
                                           note=note, right_index=index)
    assert note == [
        "parallel-probe" if unique_build else "parallel-merge-probe"]


@pytest.mark.parametrize("n_segments", [1, 2, 3, 4, 7])
@pytest.mark.parametrize("unique_build", [True, False])
def test_parallel_dense_probe_bit_identical(n_segments, unique_build):
    """Dense build-side spans chunk the direct-address probe across the
    pool — the table is built once, by the planner; output must match the
    one-chunk dense kernel exactly."""
    pool = SegmentPool(n_segments, max_workers=4)
    rng = np.random.default_rng(30 * n_segments + unique_build)
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
    assert_every_fan_out_matches_reference(
        left_col, right_col, pool, note=note,
        right_index=build_key_index(right_col.values))
    assert note == [
        "parallel-dense" if unique_build else "parallel-dense-merge"]


def test_executor_engages_parallel_indexed_probe(monkeypatch):
    """The warm-loop case: a cached build-side index is probed in chunks
    across the pool."""
    import repro.sqlengine.executor as executor_module

    monkeypatch.setattr(executor_module, "PARALLEL_MIN_ROWS", 1)
    rng = np.random.default_rng(21)
    n = 4000
    # Sparse unique representatives: span far beyond the dense-kernel cap,
    # so the single-threaded dispatch would take the sorted-index probe.
    reps = rng.permutation(np.arange(200) * (2 ** 53 + 12345))
    v1 = reps[rng.integers(0, 200, n)]
    v2 = rng.integers(0, 200, n)

    def build(workers):
        db = Database(n_segments=4, pool_workers=workers)
        db.load_table("e", {"v1": v1, "v2": v2})
        db.load_table("r", {"v": np.arange(200, dtype=np.int64),
                            "rep": reps})
        # Warm the index on the build side, as the round loop's first join
        # does, then re-join: the indexed path must go parallel.
        db.execute("select r.rep, count(*) c from r group by r.rep")
        return db

    query = "select e.v1, r.v from e, r where e.v1 = r.rep"
    on, off = build(4), build(1)
    rows_on = on.execute(query).rows()
    rows_off = off.execute(query).rows()
    assert rows_on == rows_off
    assert on.stats.parallel_indexed_probes > 0
    assert on.stats.index_cache_hits > 0
    assert off.stats.parallel_indexed_probes == 0


def test_executor_engages_parallel_dense_probe(monkeypatch):
    """Dense vertex ids with a warm build-side index: the direct-address
    probe must chunk across the pool rather than run single-threaded."""
    import repro.sqlengine.executor as executor_module

    monkeypatch.setattr(executor_module, "PARALLEL_MIN_ROWS", 1)
    rng = np.random.default_rng(27)
    n = 4000
    v1 = rng.integers(0, 300, n)
    v2 = rng.integers(0, 300, n)
    rep = rng.integers(0, 300, 300)

    def build(workers):
        db = Database(n_segments=4, pool_workers=workers)
        db.load_table("e", {"v1": v1, "v2": v2})
        db.load_table("r", {"v": np.arange(300, dtype=np.int64),
                            "rep": rep})
        db.execute("select r.v, count(*) c from r group by r.v")  # warm index
        return db

    query = "select e.v2, r.rep from e, r where e.v1 = r.v"
    on, off = build(4), build(1)
    assert on.execute(query).rows() == off.execute(query).rows()
    assert on.stats.parallel_dense_probes > 0
    assert off.stats.parallel_dense_probes == 0


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
    spec = AggregateSpec(
        kind,
        None if kind == "count*" else np.array(
            values, dtype=np.float64 if floats else np.int64),
        np.array(nulls) if masked else None,
        FLOAT64 if floats else INT64,
    )
    got, got_nulls = _reduce_slice(spec, None if pregrouped else order,
                                   starts, row_counts)
    if kind in ("count*", "count") or (kind == "sum" and not floats):
        assert got.dtype == np.int64
    elif kind in ("min", "max"):
        assert got.dtype == spec.values.dtype
    else:
        assert got.dtype == np.float64
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
    """A GROUP BY reduces dense keys by direct addressing, any other key
    through a sort, and a key its stored index proves sorted (one key
    value) in place; every layout, and sum/avg (never direct), gives the
    per-group loop's values."""
    import repro.sqlengine.executor as executor_module

    layouts: list = []
    real = executor_module.direct_group_rows

    def spy(*args):
        groups = real(*args)
        layouts.append("direct" if groups is not None else "sorted")
        return groups

    monkeypatch.setattr(executor_module, "direct_group_rows", spy)
    rng = np.random.default_rng(n_keys)
    n = 1500
    keys = rng.integers(0, n_keys, n)
    ints = rng.integers(-100, 100, n)
    floats = rng.integers(-800, 800, n) / 8.0  # eighths add exactly
    keep = (rng.random(n) >= 0.2).astype(np.int64)
    db = Database(n_segments=4, pool_workers=1)
    db.load_table("t", {"k": keys, "s": keys * (2 ** 40) + 3, "i": ints,
                        "f": floats, "keep": keep})

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
    ]

    def expected(reduced, key_of):
        return [(key_of(key), *(column[g][0] for column in reduced))
                for g, key in enumerate(sorted(set(keys.tolist())))]

    for key, layout, key_of in (("k", "direct", int),
                                ("s", "sorted", lambda k: k * 2 ** 40 + 3)):
        layouts.clear()
        skipped = db.stats.group_sorts_skipped
        rows = db.execute(f"select {key}, {_GROUP_ITEMS} from t "
                          f"group by {key}").rows()
        if n_keys == 1:
            assert layouts == []
            assert db.stats.group_sorts_skipped == skipped + 1
        else:
            assert layouts == [layout]
        assert sorted(rows) == expected(columns, key_of)
    layouts.clear()
    rows = db.execute(f"select k, {_SUM_ITEMS} from t group by k").rows()
    assert layouts == []
    assert sorted(rows) == expected(sums, int)
    db.close()


@given(st.lists(st.integers(min_value=-5, max_value=5), min_size=0,
                max_size=50))
def test_group_by_small_inputs_agree_with_python_loop(values):
    """Few rows, negative keys, no rows at all: the direct-address layout
    (whose slots start at the smallest key) against the per-group loop."""
    db = Database(n_segments=4, pool_workers=1)
    db.load_table("t", {"k": np.array(values, dtype=np.int64),
                        "i": np.arange(len(values), dtype=np.int64)})
    rows = db.execute("select k, count(*) c, min(i) m from t "
                      "group by k").rows()
    db.close()
    never = [False] * len(values)
    counts = _loop_reduce("count*", values, values, never)
    minima = _loop_reduce("min", values, list(range(len(values))), never)
    assert sorted(rows) == [
        (key, count, low) for key, (count, _), (low, _)
        in zip(sorted(set(values)), counts, minima)]


# ---------------------------------------------------------------------------
# executor integration: parallel on/off must be invisible in results
# ---------------------------------------------------------------------------


QUERIES = [
    "select e.v1, r.rep from e, r where e.v1 = r.v",
    # GROUP BY over a chunked join: only the join fans out.
    "select e.v1, count(*) c, min(r.rep) lo, max(e.v2) hi, sum(e.v2) s "
    "from e, r where e.v2 = r.v group by e.v1",
    "select l.v, coalesce(r.rep, 0 - 1) rep from l "
    "left outer join r on (l.rep = r.v)",
    "select distinct e.v1, r.rep from e, r where e.v2 = r.v and e.v1 != r.rep",
]


@pytest.mark.parametrize("query", QUERIES)
def test_executor_parallel_on_off_identical(query, monkeypatch):
    import repro.sqlengine.executor as executor_module

    monkeypatch.setattr(executor_module, "PARALLEL_MIN_ROWS", 1)

    def build(workers):
        # The index-less case: every join sorts its own build side.
        db = Database(n_segments=4, pool_workers=workers)
        db._executor.use_index_cache = False
        rng = np.random.default_rng(99)
        n = 2500
        db.load_table("e", {"v1": rng.integers(0, 200, n),
                            "v2": rng.integers(0, 200, n)})
        db.load_table("r", {"v": np.arange(200, dtype=np.int64),
                            "rep": rng.integers(0, 1 << 40, 200)})
        db.load_table("l", {"v": np.arange(50, dtype=np.int64),
                            "rep": rng.integers(0, 400, 50)})
        return db

    on = build(4)
    off = build(1)
    rows_on = on.execute(query).rows()
    rows_off = off.execute(query).rows()
    assert rows_on == rows_off
    assert on.stats.parallel_partitions > 0
    assert off.stats.parallel_partitions == 0


def test_rc_end_to_end_parallel_identical(monkeypatch):
    import repro.sqlengine.executor as executor_module

    from repro.core import RandomisedContraction
    from repro.graphs import gnm_random_graph
    from repro.graphs.io import load_edges_into

    monkeypatch.setattr(executor_module, "PARALLEL_MIN_ROWS", 1)
    edges = gnm_random_graph(500, 900, np.random.default_rng(17))

    def run(workers):
        db = Database(n_segments=4, pool_workers=workers)
        db._executor.use_index_cache = False
        load_edges_into(db, "edges", edges)
        result = RandomisedContraction().run(db, "edges", seed=13)
        vertices, labels = result.labels(db)
        order = np.argsort(vertices, kind="stable")
        return vertices[order], labels[order], db.stats

    v_on, l_on, stats_on = run(4)
    v_off, l_off, stats_off = run(1)
    assert np.array_equal(v_on, v_off)
    assert np.array_equal(l_on, l_off)
    assert stats_on.parallel_partitions > 0
    assert stats_off.parallel_partitions == 0


# ---------------------------------------------------------------------------
# the bit-identity matrix: every kernel x every way a pool can run it
# ---------------------------------------------------------------------------


def _join_case(dense, unique_build, indexed=True, probe_index=None,
               left_outer=False, encoded=False, misses=True):
    """One join of the matrix.  ``pool`` ``None`` is fan-out 1 — the direct
    ``join_indices`` call; anything else chunks over that pool.  Both are
    held against ``merge_join_indices``, which sees no index at all.

    The probe side is 20 000 rows drawn from the build side followed by
    3 000 misses, so at fan-out 4 against a unique build side three
    chunks match every row (identity left rows) and the last does not;
    ``misses=False`` drops the misses, and every row matches.

    ``indexed`` hands the build side's ``KeyIndex`` over (a stored
    table's cached one; without it the route sorts for itself);
    ``probe_index`` hands over the probe side's own index too (the planner
    reads its key range, nothing else) — over a shuffled column
    (``"indexed"``) or one stored in key order (``"stored-sorted"``).
    ``encoded`` gives both sides the dictionary-encoded form over one
    shared dictionary, of which the build side holds a part: the probes
    absent from it are codes without a build row."""
    def case(pool, note):
        rng = np.random.default_rng(17 * dense + unique_build)
        if dense:
            build = rng.permutation(5000)
        else:
            build = rng.permutation(2 ** 62 // 7 * np.arange(1, 5001))
        if not unique_build:
            build = np.concatenate([build, build[:500]])
        probe = build[rng.integers(0, build.shape[0], 20_000)]
        if misses:
            probe = np.concatenate([
                probe,
                rng.integers(-2000, 0, 1_000),    # below-range misses
                rng.integers(5001, 9000, 2_000),  # above-range / absent misses
            ])
        if probe_index == "stored-sorted":
            probe.sort()
        # Every chunk is big enough for the bucketed sorted_lookup.
        assert probe.shape[0] // 4 >= CACHE_KERNEL_MIN_ROWS
        left_col, right_col = int_column(probe), int_column(build)
        if encoded:
            dictionary = np.unique(np.concatenate([probe, build]))
            left_col, right_col = (
                Column.encoded(np.searchsorted(dictionary, values),
                               dictionary)
                for values in (probe, build))
            assert np.array_equal(right_col.values, build)
        right_index = build_key_index(right_col.storage,
                                      right_col.dictionary) \
            if indexed else None
        assert right_index is None or right_index.is_unique == unique_build
        left_index = build_key_index(left_col.values) if probe_index else None
        assert left_index is None or (
            left_index.is_sorted == (probe_index == "stored-sorted"))
        expected = merge_join_indices([int_column(probe)],
                                      [int_column(build)])
        if pool is None:
            got = join_indices([left_col], [right_col], left_index,
                               right_index, note)
        else:
            got = parallel_join_indices([left_col], [right_col], pool, note,
                                        left_index, right_index)
        if left_outer:
            expected = pad_left_outer(*expected, len(left_col))
            got = pad_left_outer(*got, len(left_col))
        return expected, got
    return case


#: id -> (case, the route it must take).  The two "hash-join" ids
#: predate the removal of the hash-partitioned join: they are the joins
#: without a build-side index, which now sort once and chunk the probe.
#: The two "merge-unique" ids likewise predate the removal of the merge
#: probe (no algorithm reached it once joins ran on codes): they are the
#: joins that find a probe-side index in hand, which changes no pair.
KERNEL_CASES = {
    "hash-join": (
        _join_case(False, False, indexed=False), "sorted-runs"),
    "left-hash-join": (
        _join_case(True, False, indexed=False, left_outer=True),
        "dense-runs"),
    "sorted-unique-probe": (_join_case(False, True), "sparse-unique"),
    "sorted-merge-probe": (_join_case(False, False), "indexed-runs"),
    "merge-unique-probe": (
        _join_case(False, True, probe_index="indexed"), "sparse-unique"),
    "left-merge-unique-probe": (
        _join_case(False, True, probe_index="stored-sorted",
                   left_outer=True),
        "sparse-unique"),
    "dictionary-probe": (
        _join_case(False, True, encoded=True), "dictionary"),
    "dictionary-no-index-probe": (
        _join_case(False, True, indexed=False, encoded=True), "dictionary"),
    "left-dictionary-probe": (
        _join_case(False, True, encoded=True, left_outer=True),
        "dictionary"),
    "dictionary-duplicate-build": (
        _join_case(False, False, encoded=True), "indexed-runs"),
    "dense-unique-probe": (_join_case(True, True), "dense-unique"),
    "dense-bucket-probe": (_join_case(True, False), "dense-runs"),
    "left-dense-probe": (
        _join_case(True, True, left_outer=True), "dense-unique"),
    "left-sorted-probe": (
        _join_case(False, False, left_outer=True), "indexed-runs"),
    # Every probe row matches once: identity left rows in every chunk.
    "dense-unique-all-match": (
        _join_case(True, True, misses=False), "dense-unique"),
    "sorted-unique-all-match": (
        _join_case(False, True, misses=False), "sparse-unique"),
    "left-dictionary-all-match": (
        _join_case(False, True, encoded=True, left_outer=True,
                   misses=False), "dictionary"),
}

#: Every way a kernel body runs: "serial" is the direct call at fan-out 1,
#: the others chunk over a four-thread pool of that many segments.
FAN_OUTS = {"serial": None, "thread": 4, "thread-3": 3, "thread-7": 7}
MATRIX = [(kernel, fan_out) for kernel in KERNEL_CASES for fan_out in FAN_OUTS]


def _run_case(case, pool):
    """Run one matrix case against its reference; returns the route note."""
    note: list = []
    reference, result = case(pool, note)
    assert len(reference) == len(result)
    for expected, got in zip(reference, result):
        assert got.dtype == expected.dtype
        assert np.array_equal(expected, got)
    return note


@pytest.mark.parametrize(
    "kernel,fan_out", MATRIX, ids=[f"{k}-{f}" for k, f in MATRIX])
def test_kernel_matrix_bit_identical(kernel, fan_out):
    case, route = KERNEL_CASES[kernel]
    n_segments = FAN_OUTS[fan_out]
    if n_segments is None:
        assert _run_case(case, None) == [JOIN_ROUTES[route][0]]
        return
    pool = SegmentPool(n_segments, max_workers=4)
    try:
        assert _run_case(case, pool) == [JOIN_ROUTES[route][1]]
    finally:
        pool.shutdown()


#: Matrix cases over a unique build side -> whether each of the four
#: chunks matches every one of its probe rows.
IDENTITY_CHUNKS = {
    "dense-unique-probe": [True, True, True, False],
    "sorted-unique-probe": [True, True, True, False],
    "dictionary-probe": [True, True, True, False],
    "left-dense-probe": [True, True, True, False],
    "dense-unique-all-match": [True] * 4,
    "sorted-unique-all-match": [True] * 4,
    "left-dictionary-all-match": [True] * 4,
}


@pytest.mark.parametrize("kernel", sorted(IDENTITY_CHUNKS))
def test_fully_matching_chunks_return_identity_left_rows(kernel,
                                                         monkeypatch):
    """A chunk whose every probe row found its one build row returns
    ``None`` left rows, at fan-out 1 and 4; the matrix case's pairs (held
    against the reference by ``_run_case``) show ``combine`` rebuilt the
    mixed ``None`` / array chunk lists in probe order."""
    combined = []
    combine = JoinRoute.combine

    def recording_combine(route, pairs, spans):
        combined.append([left is None for left, _ in pairs])
        return combine(route, pairs, spans)

    monkeypatch.setattr(JoinRoute, "combine", recording_combine)
    case, _ = KERNEL_CASES[kernel]
    _run_case(case, None)
    _run_case(case, POOL)
    chunks = IDENTITY_CHUNKS[kernel]
    assert combined == [[all(chunks)], chunks]


def test_combine_spells_out_identity_chunks_over_their_own_spans():
    route = JoinRoute("dense-unique")
    pairs = [(None, np.array([5, 6])), (np.array([3]), np.array([7])),
             (None, np.array([8, 9]))]
    spans = [(0, 2), (2, 4), (4, 6)]
    l_idx, r_idx = route.combine(pairs, spans)
    assert l_idx.dtype == np.int64
    assert l_idx.tolist() == [0, 1, 3, 4, 5]
    assert r_idx.tolist() == [5, 6, 7, 8, 9]
    identity = [(None, np.array([5, 6])), (None, np.array([7, 8, 9, 4]))]
    l_idx, r_idx = route.combine(identity, [(0, 2), (2, 6)])
    assert l_idx is None and r_idx.tolist() == [5, 6, 7, 8, 9, 4]
    # NULL probe keys were filtered out: positions are surviving rows.
    route.left_rows = np.array([1, 2, 4, 7, 8, 9])
    assert route.combine(identity, [(0, 2), (2, 6)])[0] is route.left_rows
    assert route.combine(pairs, spans)[0].tolist() == [1, 2, 7, 8, 9]


@pytest.mark.parametrize("fan_out", ["thread", "thread-3", "thread-7"])
def test_group_by_over_join_bit_identical_across_fan_outs(fan_out,
                                                          monkeypatch):
    """A GROUP BY runs serially over its join's output, which every fan-out
    must produce in the one-worker order: float sums and averages then
    match to the bit."""
    import repro.sqlengine.executor as executor_module

    monkeypatch.setattr(executor_module, "PARALLEL_MIN_ROWS", 1)
    query = ("select e.v1, count(*) c, sum(e.f) s, avg(e.f) a, "
             "min(r.rep) lo, max(case when e.v2 > 50 then e.f end) hi "
             "from e, r where e.v2 = r.v group by e.v1")

    def run(n_segments, workers):
        db = Database(n_segments=n_segments, pool_workers=workers)
        db._executor.use_index_cache = False
        rng = np.random.default_rng(41)
        n = 4000
        db.load_table("e", {"v1": rng.integers(0, 150, n),
                            "v2": rng.integers(0, 200, n),
                            "f": rng.normal(size=n)})
        db.load_table("r", {"v": np.arange(200, dtype=np.int64),
                            "rep": rng.integers(0, 1 << 40, 200)})
        return db, db.execute(query).rows()

    reference_db, expected = run(4, 1)
    reference_db.close()
    db, rows = run(FAN_OUTS[fan_out], 4)
    try:
        assert rows == expected
        assert db.stats.parallel_partitions == FAN_OUTS[fan_out]
    finally:
        db.close()
