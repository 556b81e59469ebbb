"""Property tests for the segment-parallel kernels.

The contract is absolute: :func:`parallel_join_indices` and
:func:`parallel_group_aggregate` must return **bit-identical** output to
their single-threaded references for every input shape, because the
executor switches between the strategies purely on size and pool
availability.  These tests force a multi-worker pool even on single-core
machines so the parallel code path (partitioning, per-partition kernels,
scatter recombination) is always exercised.

Every kernel has one body that thread workers and worker processes both
run, so one matrix — kernel x {thread pool, process pool, process pool
whose shared-memory export fails} — pins the bit-identity of all of them
(``test_kernel_matrix_bit_identical``).
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
    build_key_index,
    join_indices,
    left_join_indices,
)
from repro.sqlengine.parallel import (
    PARALLEL_AGGREGATES,
    AggregateSpec,
    group_aggregate,
    parallel_group_aggregate,
    parallel_join_indices,
    parallel_left_join_indices,
    parallel_left_probe_indexed,
    parallel_probe_indexed,
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


@given(keys, keys)
def test_parallel_join_bit_identical(left, right):
    left_col, right_col = int_column(left), int_column(right)
    reference = join_indices([left_col], [right_col])
    parallel = parallel_join_indices([left_col], [right_col], POOL)
    assert np.array_equal(reference[0], parallel[0])
    assert np.array_equal(reference[1], parallel[1])


@given(keys, keys)
def test_parallel_left_join_bit_identical(left, right):
    if not left:
        left = [0]
    left_col, right_col = int_column(left), int_column(right)
    reference = left_join_indices([left_col], [right_col])
    parallel = parallel_left_join_indices([left_col], [right_col], POOL)
    assert np.array_equal(reference[0], parallel[0])
    assert np.array_equal(reference[1], parallel[1])


@pytest.mark.parametrize("n_segments", [1, 2, 3, 4, 7])
def test_parallel_join_large_random(n_segments):
    pool = SegmentPool(n_segments, max_workers=4)
    rng = np.random.default_rng(n_segments)
    left = int_column(rng.integers(0, 5000, 20_000))
    right = int_column(
        np.concatenate([rng.permutation(5000), rng.integers(0, 5000, 800)])
    )
    reference = join_indices([left], [right])
    parallel = parallel_join_indices([left], [right], pool)
    assert np.array_equal(reference[0], parallel[0])
    assert np.array_equal(reference[1], parallel[1])


def test_parallel_join_falls_back_on_unsupported_shapes():
    masked = Column(np.array([1, 2, 3], dtype=np.int64), INT64,
                    np.array([False, True, False]))
    plain = int_column([2, 3, 4])
    reference = join_indices([masked], [plain])
    parallel = parallel_join_indices([masked], [plain], POOL)
    assert np.array_equal(reference[0], parallel[0])
    assert np.array_equal(reference[1], parallel[1])


@given(keys, keys)
def test_parallel_indexed_probe_bit_identical(left, right):
    left_col, right_col = int_column(left), int_column(right)
    index = build_key_index(right_col.values)
    reference = join_indices([left_col], [right_col], right_index=index)
    parallel = parallel_probe_indexed([left_col], [right_col], index, POOL)
    assert np.array_equal(reference[0], parallel[0])
    assert np.array_equal(reference[1], parallel[1])


@given(keys, keys)
def test_parallel_indexed_left_probe_bit_identical(left, right):
    if not left:
        left = [0]
    left_col, right_col = int_column(left), int_column(right)
    index = build_key_index(right_col.values)
    reference = left_join_indices([left_col], [right_col], right_index=index)
    parallel = parallel_left_probe_indexed([left_col], [right_col], index,
                                           POOL)
    assert np.array_equal(reference[0], parallel[0])
    assert np.array_equal(reference[1], parallel[1])


@pytest.mark.parametrize("n_segments", [1, 2, 3, 4, 7])
@pytest.mark.parametrize("unique_build", [True, False])
def test_parallel_indexed_probe_large_sparse(n_segments, unique_build):
    """Sparse 64-bit build keys force the sorted-index probe (the warm-loop
    shape); chunked output must match the single-threaded probe exactly."""
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
    reference = join_indices([left_col], [right_col], right_index=index)
    parallel = parallel_probe_indexed([left_col], [right_col], index, pool,
                                      note)
    assert note[-1] in ("parallel-probe", "parallel-merge-probe")
    assert np.array_equal(reference[0], parallel[0])
    assert np.array_equal(reference[1], parallel[1])


@pytest.mark.parametrize("n_segments", [1, 2, 3, 4, 7])
@pytest.mark.parametrize("unique_build", [True, False])
def test_parallel_dense_probe_bit_identical(n_segments, unique_build):
    """Dense build-side spans now chunk the direct-address probe across the
    pool (an existing index no longer forces single-threaded execution);
    output must match the single-threaded dense kernel exactly."""
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
    index = build_key_index(right_col.values)
    note: list = []
    parallel = parallel_probe_indexed([left_col], [right_col], index, pool,
                                      note)
    assert note[-1] in ("parallel-dense", "parallel-dense-merge")
    assert note[-1] == (
        "parallel-dense" if unique_build else "parallel-dense-merge"
    )
    reference = join_indices([left_col], [right_col], right_index=index)
    assert np.array_equal(reference[0], parallel[0])
    assert np.array_equal(reference[1], parallel[1])


def test_executor_engages_parallel_indexed_probe(monkeypatch):
    """The warm-loop case: a cached build-side index no longer disables
    parallel execution — the probe chunks across the pool."""
    import repro.sqlengine.executor as executor_module

    monkeypatch.setattr(executor_module, "PARALLEL_MIN_ROWS", 1)
    rng = np.random.default_rng(21)
    n = 4000
    # Sparse unique representatives: span far beyond the dense-kernel cap,
    # so the single-threaded dispatch would take the sorted-index probe.
    reps = rng.permutation(np.arange(200) * (2 ** 53 + 12345))
    v1 = reps[rng.integers(0, 200, n)]
    v2 = rng.integers(0, 200, n)

    def build(parallel):
        db = Database(n_segments=4, parallel=parallel)
        db.load_table("e", {"v1": v1, "v2": v2})
        db.load_table("r", {"v": np.arange(200, dtype=np.int64),
                            "rep": reps})
        # Warm the index on the build side, as the round loop's first join
        # does, then re-join: the indexed path must go parallel.
        db.execute("select r.rep, count(*) c from r group by r.rep")
        return db

    query = "select e.v1, r.v from e, r where e.v1 = r.rep"
    on, off = build(True), build(False)
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

    def build(parallel):
        db = Database(n_segments=4, parallel=parallel)
        db.load_table("e", {"v1": v1, "v2": v2})
        db.load_table("r", {"v": np.arange(300, dtype=np.int64),
                            "rep": rep})
        db.execute("select r.v, count(*) c from r group by r.v")  # warm index
        return db

    query = "select e.v2, r.rep from e, r where e.v1 = r.v"
    on, off = build(True), build(False)
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

    def build(parallel):
        # The parallel kernels only engage where no cached build-side index
        # already provides a sorted path, so model the index-less case.
        db = Database(n_segments=4, parallel=parallel, use_index_cache=False)
        rng = np.random.default_rng(99)
        n = 2500
        db.load_table("e", {"v1": rng.integers(0, 200, n),
                            "v2": rng.integers(0, 200, n)})
        db.load_table("r", {"v": np.arange(200, dtype=np.int64),
                            "rep": rng.integers(0, 1 << 40, 200)})
        db.load_table("l", {"v": np.arange(50, dtype=np.int64),
                            "rep": rng.integers(0, 400, 50)})
        return db

    on = build(True)
    off = build(False)
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

    def run(parallel):
        db = Database(n_segments=4, parallel=parallel, use_index_cache=False)
        load_edges_into(db, "edges", edges)
        result = RandomisedContraction().run(db, "edges", seed=13)
        vertices, labels = result.labels(db)
        order = np.argsort(vertices, kind="stable")
        return vertices[order], labels[order], db.stats

    v_on, l_on, stats_on = run(True)
    v_off, l_off, stats_off = run(False)
    assert np.array_equal(v_on, v_off)
    assert np.array_equal(l_on, l_off)
    assert stats_on.parallel_partitions > 0
    assert stats_off.parallel_partitions == 0


# ---------------------------------------------------------------------------
# the bit-identity matrix: every kernel x every way a pool can run it
# ---------------------------------------------------------------------------


def _join_case(kernel, reference, left_hi):
    def case(pool, note):
        rng = np.random.default_rng(7)
        left = int_column(rng.integers(0, left_hi, 20_000))
        right = int_column(
            np.concatenate([rng.permutation(5000), rng.integers(0, 5000, 800)])
        )
        return (reference([left], [right]),
                kernel([left], [right], pool, note))
    return case


def _probe_case(kernel, reference, dense, unique_build, merge=None):
    """``merge`` hands the kernel the probe side's own sorted index too
    (the chunks then merge two sorted arrays) — over a shuffled column
    (``"indexed"``) or one stored in key order (``"stored-sorted"``).  The
    reference never sees it, so the two routes check each other."""
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
        if merge == "stored-sorted":
            probe.sort()
        # Every chunk is big enough for the bucketed sorted_lookup.
        assert probe.shape[0] // pool.n_segments >= CACHE_KERNEL_MIN_ROWS
        left_col, right_col = int_column(probe), int_column(build)
        index = build_key_index(right_col.values)
        assert index.is_unique == unique_build
        left_index = build_key_index(left_col.values) if merge else None
        assert left_index is None or (
            left_index.is_materialised
            and left_index.is_sorted == (merge == "stored-sorted"))
        return (reference([left_col], [right_col], right_index=index),
                kernel([left_col], [right_col], index, pool, note,
                       left_index))
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


#: id -> (case, the kernel note it must report or None)
KERNEL_CASES = {
    "hash-join": (
        _join_case(parallel_join_indices, join_indices, 5000),
        "parallel-hash"),
    "left-hash-join": (
        _join_case(parallel_left_join_indices, left_join_indices, 6000),
        "parallel-hash"),
    "sorted-unique-probe": (
        _probe_case(parallel_probe_indexed, join_indices, False, True),
        "parallel-probe"),
    "sorted-merge-probe": (
        _probe_case(parallel_probe_indexed, join_indices, False, False),
        "parallel-merge-probe"),
    "merge-unique-probe": (
        _probe_case(parallel_probe_indexed, join_indices, False, True,
                    merge="indexed"),
        "parallel-probe"),
    "left-merge-unique-probe": (
        _probe_case(parallel_left_probe_indexed, left_join_indices, False,
                    True, merge="stored-sorted"),
        "parallel-probe"),
    "dense-unique-probe": (
        _probe_case(parallel_probe_indexed, join_indices, True, True),
        "parallel-dense"),
    "dense-bucket-probe": (
        _probe_case(parallel_probe_indexed, join_indices, True, False),
        "parallel-dense-merge"),
    "left-dense-probe": (
        _probe_case(parallel_left_probe_indexed, left_join_indices, True,
                    True),
        "parallel-dense"),
    "left-sorted-probe": (
        _probe_case(parallel_left_probe_indexed, left_join_indices, False,
                    False),
        "parallel-merge-probe"),
    "group-aggregate": (_aggregate_case, None),
}


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
    if pool.supports_processes:
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


@pytest.mark.parametrize("backend", ["thread", "process", "process-no-shm"])
@pytest.mark.parametrize("kernel", KERNEL_CASES)
def test_kernel_matrix_bit_identical(kernel, backend, monkeypatch):
    case, expected_note = KERNEL_CASES[kernel]
    pool_cls = SegmentPool if backend == "thread" else ProcessSegmentPool
    pool = pool_cls(4, max_workers=4)
    try:
        if backend == "process-no-shm":
            _refuse_shm_create(monkeypatch)
            blocks_before = _shm_blocks()
        note, process_tasks = _run_case(case, pool)
        if expected_note is not None:
            assert note[-1] == expected_note
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
