"""Property tests for the segment-parallel kernels.

The contract is absolute: a join must return **bit-identical** row pairs
at every fan-out — :func:`join_indices` (the route's kernel called once)
and :func:`parallel_join_indices` (the same kernel over one chunk per
segment) — and :func:`parallel_group_aggregate` the output of
:func:`group_aggregate`, because the executor switches between them purely
on size and pool width.  Joins are checked against the independent
plain-numpy reference :func:`merge_join_indices`; the aggregate reducer
against a per-group Python loop.  These tests force a multi-worker pool
even on single-core machines so the pool code path (chunking, shared
inputs, recombination) is always exercised.

Every kernel has one body that the direct call, thread workers and worker
processes all run, so one matrix — kernel x {fan-out 1, thread pool,
process pool, process pool whose shared-memory export fails} — pins the
bit-identity of all of them (``test_kernel_matrix_bit_identical``).
"""

import errno
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.sqlengine.shm as shm_module
from repro.sqlengine import Database
from repro.sqlengine.mpp import (
    Cluster,
    ProcessSegmentPool,
    SegmentPool,
    segment_assignment,
)
from repro.sqlengine.operators import (
    CACHE_KERNEL_MIN_ROWS,
    JOIN_ROUTES,
    build_key_index,
    join_indices,
    merge_join_indices,
    pad_left_outer,
)
from repro.sqlengine.parallel import (
    PARALLEL_AGGREGATES,
    AggregateSpec,
    _reduce_slice,
    group_aggregate,
    parallel_group_aggregate,
    parallel_join_indices,
)
from repro.sqlengine.types import FLOAT64, INT64, Column


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


def test_segment_assignment_partitions_rows():
    values = np.random.default_rng(0).integers(-(2 ** 60), 2 ** 60, 5000)
    values[2500:] = values[:2500]  # every key appears twice
    seg = segment_assignment(values, 4)
    assert seg.shape == values.shape
    assert set(np.unique(seg)) == {0, 1, 2, 3}
    # Equal keys co-locate, and it is the assignment the cluster models.
    assert np.array_equal(seg[:2500], seg[2500:])
    assert np.array_equal(seg, Cluster(4).segment_of(Column(values, INT64)))


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def _specs_for(rng, n):
    int_values = rng.integers(-100, 100, n)
    float_values = rng.normal(size=n)
    mask = rng.random(n) < 0.2
    return [
        AggregateSpec("count*"),
        AggregateSpec("count", int_values, mask.copy(), INT64),
        AggregateSpec("min", int_values, None, INT64),
        AggregateSpec("max", int_values, mask.copy(), INT64),
        AggregateSpec("sum", int_values, None, INT64),
        AggregateSpec("sum", float_values, mask.copy(), FLOAT64),
        AggregateSpec("avg", float_values, mask.copy(), FLOAT64),
    ]


@pytest.mark.parametrize("n_keys", [1, 7, 200])
def test_parallel_group_aggregate_bit_identical(n_keys):
    rng = np.random.default_rng(n_keys)
    n = 3000
    group_keys = rng.integers(0, n_keys, n)
    specs = _specs_for(rng, n)
    ref_keys, ref_results = group_aggregate(group_keys, specs)
    par_keys, par_results = parallel_group_aggregate(group_keys, specs, POOL)
    assert np.array_equal(ref_keys, par_keys)
    for (ref_vals, ref_mask), (par_vals, par_mask) in zip(ref_results,
                                                          par_results):
        # Bit-identical, including float sums (per-key rows never split
        # across partitions, so reduction order is preserved).
        assert ref_vals.dtype == par_vals.dtype
        assert np.array_equal(ref_vals, par_vals)
        if ref_mask is None:
            assert par_mask is None
        else:
            assert np.array_equal(ref_mask, par_mask)


@given(st.lists(st.integers(min_value=-5, max_value=5), min_size=0,
                max_size=50))
def test_parallel_group_aggregate_small_inputs(values):
    group_keys = np.array(values, dtype=np.int64)
    arg = np.arange(group_keys.shape[0], dtype=np.int64)
    specs = [AggregateSpec("count*"), AggregateSpec("min", arg, None, INT64)]
    ref_keys, ref_results = group_aggregate(group_keys, specs)
    par_keys, par_results = parallel_group_aggregate(group_keys, specs, POOL)
    assert np.array_equal(ref_keys, par_keys)
    for (ref_vals, _), (par_vals, _) in zip(ref_results, par_results):
        assert np.array_equal(ref_vals, par_vals)


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


@pytest.mark.parametrize("kind", sorted(PARALLEL_AGGREGATES))
@given(
    rows=st.lists(
        st.tuples(st.integers(0, 5), st.integers(-1000, 1000), st.booleans()),
        min_size=1, max_size=40),
    floats=st.booleans(), masked=st.booleans(), pregrouped=st.booleans(),
)
def test_reducer_agrees_with_python_loop(kind, rows, floats, masked,
                                         pregrouped):
    """``_reduce_slice`` is the one reducer the executor, ``group_aggregate``
    and the partition kernel share, so its reference shares nothing with
    it: a per-group loop — every kind, int and float arguments, with and
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
    got, got_nulls = _reduce_slice(spec, None, None if pregrouped else order,
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


# ---------------------------------------------------------------------------
# executor integration: parallel on/off must be invisible in results
# ---------------------------------------------------------------------------


QUERIES = [
    "select e.v1, r.rep from e, r where e.v1 = r.v",
    "select e.v1, count(*) c, min(e.v2) lo, max(e.v2) hi, sum(e.v2) s "
    "from e group by e.v1",
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
               left_outer=False, encoded=False):
    """One join of the matrix.  ``pool`` ``None`` is fan-out 1 — the direct
    ``join_indices`` call; anything else chunks over that pool.  Both are
    held against ``merge_join_indices``, which sees no index at all.

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
        probe = np.concatenate([
            build[rng.integers(0, build.shape[0], 20_000)],
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


def _aggregate_case(pool, note):
    rng = np.random.default_rng(3)
    n = 6000
    group_keys = rng.integers(0, 150, n)
    int_values = rng.integers(-100, 100, n)
    float_values = rng.normal(size=n)
    mask = rng.random(n) < 0.2
    specs = [
        AggregateSpec("count*"),
        AggregateSpec("count", int_values, mask.copy(), INT64),
        AggregateSpec("min", int_values, None, INT64),
        AggregateSpec("min", float_values, mask.copy(), FLOAT64),
        AggregateSpec("max", int_values, mask.copy(), INT64),
        AggregateSpec("max", float_values, None, FLOAT64),
        AggregateSpec("sum", int_values, None, INT64),
        AggregateSpec("sum", float_values, mask.copy(), FLOAT64),
        AggregateSpec("avg", int_values, None, INT64),
        AggregateSpec("avg", float_values, mask.copy(), FLOAT64),
    ]
    assert {spec.kind for spec in specs} == PARALLEL_AGGREGATES
    ref_keys, ref_results = group_aggregate(group_keys, specs)
    par_keys, par_results = parallel_group_aggregate(group_keys, specs, pool)
    # Flatten to array tuples (an absent null mask stays None).
    return ((ref_keys, *sum(ref_results, ())), (par_keys, *sum(par_results, ())))


#: id -> (case, the route it must take or None).  The two "hash-join" ids
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
    "group-aggregate": (_aggregate_case, None),
}

#: Every way a kernel body runs; "serial" is the direct call at fan-out 1
#: (the aggregate's is ``group_aggregate``, every pool column's reference;
#: its own is the Python loop of ``test_reducer_agrees_with_python_loop``).
BACKENDS = ("serial", "thread", "process", "process-no-shm")
MATRIX = [(kernel, backend) for kernel in KERNEL_CASES for backend in BACKENDS
          if (kernel, backend) != ("group-aggregate", "serial")]


def _refuse_shm_create(monkeypatch, after: int = 0):
    """Make ``SharedMemory(create=True)`` raise ENOSPC once ``after``
    blocks have been created — a full ``/dev/shm``.  Attaching still
    works."""
    real = shm_module.shared_memory.SharedMemory
    created = []

    def shared_memory(*args, create=False, **kwargs):
        if create:
            if len(created) >= after:
                raise OSError(errno.ENOSPC, "No space left on device")
            created.append(None)
        return real(*args, create=create, **kwargs)

    monkeypatch.setattr(shm_module.shared_memory, "SharedMemory",
                        shared_memory)


def _shm_blocks() -> set:
    return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}


def _run_case(case, pool):
    """Run one matrix case; returns (note, process tasks it dispatched)."""
    deltas: list = []
    if pool is not None and pool.supports_processes:
        pool.on_stats_delta = deltas.append
    note: list = []
    reference, result = case(pool, note)
    assert len(reference) == len(result)
    for expected, got in zip(reference, result):
        if expected is None:
            assert got is None
        else:
            assert got.dtype == expected.dtype
            assert np.array_equal(expected, got)
    return note, sum(delta.get("process_tasks", 0) for delta in deltas)


@pytest.mark.parametrize(
    "kernel,backend", MATRIX, ids=[f"{k}-{b}" for k, b in MATRIX])
def test_kernel_matrix_bit_identical(kernel, backend, monkeypatch):
    case, route = KERNEL_CASES[kernel]
    if backend == "serial":
        note, _ = _run_case(case, None)
        assert note == [JOIN_ROUTES[route][0]]
        return
    pool_cls = SegmentPool if backend == "thread" else ProcessSegmentPool
    pool = pool_cls(4, max_workers=4)
    try:
        if backend == "process-no-shm":
            _refuse_shm_create(monkeypatch)
            blocks_before = _shm_blocks()
        note, process_tasks = _run_case(case, pool)
        if route is not None:
            assert note == [JOIN_ROUTES[route][1]]
        if backend == "thread":
            assert process_tasks == 0
        elif backend == "process":
            assert process_tasks > 0
            assert pool.registry.bytes_exported > 0
        else:
            # Export failed: the same kernel ran on the pool's threads and
            # nothing was left behind ...
            assert process_tasks == 0
            assert pool.registry.created_names() == set()
            assert _shm_blocks() == blocks_before
            # ... and the pool is still usable once memory is back.
            monkeypatch.undo()
            _, process_tasks = _run_case(case, pool)
            assert process_tasks > 0
    finally:
        pool.shutdown()
    if backend != "thread":
        assert not any(os.path.exists(f"/dev/shm/{name}")
                       for name in pool.registry.created_names())


def test_partial_export_failure_falls_back_and_leaks_nothing(monkeypatch):
    """``/dev/shm`` fills up halfway through a dispatch's exports: the
    dispatch runs on threads, and the blocks that did get created go with
    the pool."""
    case, _ = KERNEL_CASES["sorted-merge-probe"]  # three inputs
    pool = ProcessSegmentPool(4, max_workers=4)
    try:
        _refuse_shm_create(monkeypatch, after=2)
        _, process_tasks = _run_case(case, pool)
        assert process_tasks == 0
        names = pool.registry.created_names()
        assert len(names) == 2
    finally:
        pool.shutdown()
    assert not any(os.path.exists(f"/dev/shm/{name}") for name in names)
