"""Segment-parallel kernel execution.

The MPP model in :mod:`repro.sqlengine.mpp` assigns rows to segments with a
splitmix64 hash of the key.  This module makes the segments real for the
two operators that dominate the reproduced workloads: equi-joins and keyed
aggregation.

* :func:`parallel_join_indices` hash-partitions both join inputs by the
  segment assignment (equal keys always co-locate), runs an independent
  hash join per partition on a :class:`~repro.sqlengine.mpp.SegmentPool`
  worker, and scatters the per-partition results into the exact output
  order of the single-threaded kernel.

* :func:`parallel_group_aggregate` is partial-then-final aggregation: each
  partition groups its rows and computes complete per-key aggregates (all
  rows of a key live in one partition, in their original relative order, so
  even float sums reduce in the reference order), and the final step merges
  the disjoint per-partition group lists by key.

* :func:`parallel_probe_indexed` parallelises the *indexed* join path —
  the one the hash-partitioned kernel cannot serve, because a cached
  build-side :class:`~repro.sqlengine.operators.KeyIndex` is positional
  and per-partition hash joins would rebuild it from scratch.  Binary-
  search probes are independent per row, so the probe side is split into
  contiguous chunks, each worker runs the serial kernel's own
  :func:`~repro.sqlengine.operators.sorted_lookup` against the shared
  sorted index, and the chunk outputs concatenate back in probe order —
  trivially identical to the single-threaded sorted-index probe.  When
  the probe column has a sorted index of its own in hand, the chunks are
  cut from *that* order, each is a merge of two sorted arrays
  (:func:`~repro.sqlengine.operators.merge_probe`), and one scatter puts
  the pairs back in row order.  Dense
  build-side key ranges take :func:`_parallel_dense_probe` instead: the
  O(span) direct-address table is built once and probed in the same
  contiguous chunks, so an existing index over dense keys no longer forces
  the whole join single-threaded.

Every kernel is **bit-identical** to its single-threaded reference —
:func:`~repro.sqlengine.operators.join_indices` and
:func:`group_aggregate` below — which the property tests enforce.  numpy
releases the GIL inside its kernels, so partitions genuinely overlap on
multi-core hosts; the executor only dispatches here above
``PARALLEL_MIN_ROWS`` rows and when the pool has more than one worker.

Each kernel is written **once**, as a module-level function of one
``(inputs, task)`` payload: ``inputs`` are the big arrays all tasks of a
dispatch share, ``task`` the few scalars that set one partition or chunk
apart.  :func:`_run` is the only function here that knows there are two
kinds of pool: it has the pool :meth:`~SegmentPool.share` the inputs — a
thread pool hands the driver's arrays back, a
:class:`~repro.sqlengine.mpp.ProcessSegmentPool` copies each once into
shared memory (:mod:`repro.sqlengine.shm`) and returns picklable
descriptors — and :meth:`~SegmentPool.run_tasks` the kernel.  Inside a
kernel :func:`_view` turns either form into an ndarray, so threads and
worker processes execute the same statements on the same bytes.  A
process pool that cannot export (text, exhausted ``/dev/shm``, a single
worker) returns ``None`` from ``share`` and the kernel runs on its threads.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ExecutionError
from .mpp import SegmentPool, segment_assignment
from .shm import ShmArray, attach_array
from .operators import (
    NO_MATCH,
    KeyIndex,
    _boundaries,
    _dense_span_limit,
    _empty_pair,
    _hash_join_int,
    join_indices,
    merge_probe,
    pad_left_outer,
    pairs_in_row_order,
    probe_unique,
    sorted_lookup,
    sorted_side,
    stable_argsort,
)
from .types import INT64, Column

#: Below this row count the partitioning overhead outweighs any overlap.
PARALLEL_MIN_ROWS = 1 << 17

#: Aggregate kinds the parallel partial-then-final path supports.
PARALLEL_AGGREGATES = frozenset({"count*", "count", "min", "max", "sum", "avg"})


def _parallel_eligible(columns: list[Column]) -> bool:
    """Single int64-kind key column without NULLs."""
    return (
        len(columns) == 1
        and columns[0].mask is None
        and columns[0].values.dtype.kind == "i"
    )


def _run(
    pool: SegmentPool, kernel: Callable, inputs: Sequence, tasks: Sequence
) -> list:
    """Run ``kernel((inputs, task))`` for every task on the pool, in order.
    ``inputs`` holds ndarrays, ``None`` for absent optional ones, and
    Columns (a process pool adopts the shared copy as the column's
    storage, so a stored column is exported once)."""
    shared = pool.share(inputs)
    if shared is not None:
        return pool.run_tasks(kernel, [(shared, task) for task in tasks])
    # A process pool that could not export: same kernel, the pool's threads.
    local = SegmentPool.share(pool, inputs)
    return pool.map(kernel, [(local, task) for task in tasks])


def _view(array):
    """A kernel input as an ndarray: the driver's own array on a thread,
    a zero-copy attachment of its shared block in a worker process."""
    return attach_array(array) if isinstance(array, ShmArray) else array


def _concat_pairs(results: list) -> tuple[np.ndarray, np.ndarray]:
    """Chunk outputs back to back — chunks are contiguous and in probe
    order, so this is the single-threaded probe's output order."""
    return (
        np.concatenate([left for left, _ in results]),
        np.concatenate([right for _, right in results]),
    )


# ---------------------------------------------------------------------------
# joins
# ---------------------------------------------------------------------------


def parallel_join_indices(
    left_keys: list[Column],
    right_keys: list[Column],
    pool: SegmentPool,
    note: Optional[list] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Segment-parallel inner equi-join, bit-identical to ``join_indices``.

    Inputs outside the parallel kernel's shape (multi-column, text or
    NULL-bearing keys) fall back to the single-threaded kernel.
    """
    if not (_parallel_eligible(left_keys) and _parallel_eligible(right_keys)):
        return join_indices(left_keys, right_keys, note=note)
    lk = left_keys[0].values
    rk = right_keys[0].values
    n_left = int(lk.shape[0])
    if n_left == 0 or rk.shape[0] == 0:
        if note is not None:
            note.append("empty")
        return _empty_pair()
    if note is not None:
        note.append("parallel-hash")
    n_parts = pool.n_segments
    # Each side is hashed once, here; a partition picks its rows out of
    # the shared assignment array.
    results = _run(
        pool,
        _join_partition,
        (left_keys[0], right_keys[0],
         segment_assignment(lk, n_parts), segment_assignment(rk, n_parts)),
        range(n_parts),
    )

    # Reference output order: grouped by left row, ascending; within one
    # left row, right matches in stable key order.  Every left row lives in
    # exactly one partition and each partition's output is already sorted
    # by (global) left row, so per-left-row match counts give each
    # partition an exclusive, contiguous slot range to scatter into.
    match_counts = np.zeros(n_left, dtype=np.int64)
    total = 0
    for left_global, _ in results:
        if left_global.size == 0:
            continue
        total += left_global.size
        run_first, run_lengths = _runs(left_global)
        match_counts[left_global[run_first]] = run_lengths
    if total == 0:
        return _empty_pair()
    starts = np.concatenate(([0], np.cumsum(match_counts)[:-1]))
    out_left = np.empty(total, dtype=np.int64)
    out_right = np.empty(total, dtype=np.int64)
    for left_global, right_global in results:
        if left_global.size == 0:
            continue
        run_first, run_lengths = _runs(left_global)
        within = np.arange(left_global.size) - np.repeat(run_first, run_lengths)
        positions = starts[left_global] + within
        out_left[positions] = left_global
        out_right[positions] = right_global
    return out_left, out_right


def _join_partition(payload) -> tuple[np.ndarray, np.ndarray]:
    """Kernel: one hash partition of an inner join, as global row pairs
    (a partition's row numbers are increasing, so its local join keeps the
    rows' original relative order)."""
    (lk, rk, left_seg, right_seg), part = payload
    lk, rk = _view(lk), _view(rk)
    left_rows = np.flatnonzero(_view(left_seg) == part)
    right_rows = np.flatnonzero(_view(right_seg) == part)
    if left_rows.size == 0 or right_rows.size == 0:
        return _empty_pair()
    l_local, r_local = _hash_join_int(lk[left_rows], rk[right_rows],
                                      None, None)
    return left_rows[l_local], right_rows[r_local]


def parallel_left_join_indices(
    left_keys: list[Column],
    right_keys: list[Column],
    pool: SegmentPool,
    note: Optional[list] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Segment-parallel left outer join (inner join plus NO_MATCH padding,
    exactly like the single-threaded composition)."""
    l_idx, r_idx = parallel_join_indices(left_keys, right_keys, pool, note)
    return pad_left_outer(l_idx, r_idx, len(left_keys[0]))


def _probe_tasks(n_rows: int, n_chunks: int, *args) -> list[tuple]:
    """One ``(start, stop, *args)`` task per contiguous, in-order chunk
    covering ``n_rows`` probe rows."""
    bounds = [(n_rows * part) // n_chunks for part in range(n_chunks + 1)]
    return [
        (bounds[part], bounds[part + 1], *args)
        for part in range(n_chunks)
        if bounds[part] < bounds[part + 1]
    ]


def parallel_probe_indexed(
    left_keys: list[Column],
    right_keys: list[Column],
    right_index: KeyIndex,
    pool: SegmentPool,
    note: Optional[list] = None,
    left_index: Optional[KeyIndex] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Probe a cached sorted build-side index in parallel chunks.

    Bit-identical to ``join_indices(..., right_index=right_index)``: the
    probe side is cut into contiguous chunks, so concatenating the chunk
    outputs reproduces the single-threaded probe order exactly (grouped by
    left row ascending; within a row, matches in stable key order).

    ``left_index`` is the probe column's own index when its table has one
    cached; if its sorted order is already in hand and the build keys are
    unique, the chunks merge the two sorted orders instead of searching
    (the serial kernel's :func:`~repro.sqlengine.operators.merge_probe`
    route — never worth *building* an index for).

    Dense build-side key ranges route to :func:`_parallel_dense_probe`
    (the direct-address table is built once, then probed in chunks); shapes
    outside the kernel — multi-column, text or NULL-bearing keys — fall
    back to the single-threaded dispatch.
    """
    if not (_parallel_eligible(left_keys) and _parallel_eligible(right_keys)):
        return join_indices(left_keys, right_keys, right_index=right_index,
                            note=note)
    rk = right_keys[0].values
    n_left = len(left_keys[0])
    n_right = int(rk.shape[0])
    if n_left == 0 or n_right == 0:
        if note is not None:
            note.append("empty")
        return _empty_pair()
    if right_index.min_value is not None:
        span = right_index.max_value - right_index.min_value + 1
        if span <= _dense_span_limit(n_right):
            # Dense build side: build the O(span) direct-address table once,
            # then probe it in parallel chunks (the probes are independent
            # per row, exactly like the sorted-index case below).
            return _parallel_dense_probe(left_keys[0], rk, right_index,
                                         pool, note)
    unique = right_index.is_unique
    if note is not None:
        note.append("parallel-probe" if unique else "parallel-merge-probe")
    # Reading the lazy index properties here materialises them once,
    # before the workers share them; the index arrays are cached by
    # identity on a process pool, so a warm loop re-probing the same
    # stored index exports nothing new.
    order = None if right_index.is_sorted else right_index.order
    left = sorted_side(left_index, n_left) if unique else None
    if left is not None:
        # The probe column's own sorted index is in hand: chunk *it*, so
        # every chunk is a merge, and scatter the pairs back to row order.
        return pairs_in_row_order(_run(
            pool,
            _merge_probe_chunk,
            (*left, right_index.sorted_values, order),
            _probe_tasks(n_left, pool.n_segments),
        ), n_left)
    return _concat_pairs(_run(
        pool,
        _probe_chunk,
        (left_keys[0], right_index.sorted_values, order),
        _probe_tasks(n_left, pool.n_segments, unique),
    ))


def _probe_chunk(payload) -> tuple[np.ndarray, np.ndarray]:
    """Kernel: one contiguous probe chunk against a shared sorted index
    (``order`` is ``None`` when the build side is stored sorted)."""
    (lk, sorted_values, order), (start, stop, unique) = payload
    sorted_values, order = _view(sorted_values), _view(order)
    sub = _view(lk)[start:stop]
    if unique:
        return probe_unique(sub, sorted_values, order, start)
    lo = sorted_lookup(sorted_values, sub, side="left")
    hi = sorted_lookup(sorted_values, sub, side="right")
    return _expand_runs(lo, hi - lo, start, order)


def _merge_probe_chunk(payload) -> tuple[np.ndarray, np.ndarray]:
    """Kernel: one contiguous chunk of a *sorted* probe side against a
    shared sorted index of unique keys, as pairs in probe-key order."""
    (left_sorted, left_order, sorted_values, order), (start, stop) = payload
    left_order = _view(left_order)
    return merge_probe(
        _view(left_sorted)[start:stop],
        None if left_order is None else left_order[start:stop],
        _view(sorted_values), _view(order), start,
    )


def _expand_runs(
    first: np.ndarray, counts: np.ndarray, start: int,
    order: Optional[np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Row pairs of a chunk whose probe row ``i`` matches the ``counts[i]``
    consecutive build positions from ``first[i]``, mapped through
    ``order`` — the duplicate-key expansion of ``_merge_join`` and
    ``_dense_join``."""
    total = int(counts.sum())
    if total == 0:
        return _empty_pair()
    l_local = np.repeat(np.arange(counts.shape[0]), counts)
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
    within = np.arange(total) - np.repeat(offsets, counts)
    positions = np.repeat(first, counts) + within
    return l_local + start, positions if order is None else order[positions]


def _parallel_dense_probe(
    left_col: Column,
    rk: np.ndarray,
    right_index: KeyIndex,
    pool: SegmentPool,
    note: Optional[list] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Chunk-parallel probe of a dense direct-address join table.

    Mirrors :func:`~repro.sqlengine.operators._dense_join` bit for bit: the
    O(span) slot (or bucket) table is built once on the calling thread, and
    the probe side is cut into contiguous chunks whose outputs concatenate
    back in probe order — the single-threaded kernel's exact output order.
    Before this kernel, a cached build-side index over a dense key range
    forced the whole join single-threaded; now only the O(n_right) build
    stays serial.
    """
    n_right = int(rk.shape[0])
    rmin = right_index.min_value
    span = right_index.max_value - rmin + 1
    rel_right = rk - rmin
    counts: Optional[np.ndarray] = None
    if right_index.is_unique:
        unique = True
    else:
        counts = np.bincount(rel_right, minlength=span)
        unique = n_right < 2 or int(counts.max()) <= 1
    if unique:
        if note is not None:
            note.append("parallel-dense")
        slots = np.full(span, NO_MATCH, dtype=np.int64)
        slots[rel_right] = np.arange(n_right, dtype=np.int64)
        tables = (slots, None, None)
    else:
        if note is not None:
            note.append("parallel-dense-merge")
        # Duplicate build keys: the same bucket layout _dense_join builds —
        # right rows grouped by key code via the index's stable order.
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        tables = (counts, starts, right_index.order)
    return _concat_pairs(_run(
        pool,
        _dense_chunk,
        (left_col, *tables),
        _probe_tasks(len(left_col), pool.n_segments, int(rmin), int(span)),
    ))


def _dense_chunk(payload) -> tuple[np.ndarray, np.ndarray]:
    """Kernel: one probe chunk against a dense direct-address table —
    ``table`` maps a key code to its build row (unique keys, ``starts`` is
    ``None``) or to its bucket's size, the bucket being
    ``order[starts[code]:][:size]``."""
    (lk, table, starts, order), (start, stop, rmin, span) = payload
    sub = _view(lk)[start:stop]
    # Bounds-check on the original values: computing sub - rmin first could
    # wrap around int64 for extreme key ranges and alias into the table.
    in_bounds = (sub >= rmin) & (sub <= rmin + (span - 1))
    l_rel = np.where(in_bounds, sub - rmin, 0)
    if starts is None:
        candidates = _view(table)[l_rel]
        match = in_bounds & (candidates != NO_MATCH)
        l_local = np.flatnonzero(match)
        return l_local + start, candidates[l_local]
    cnt = np.where(in_bounds, _view(table)[l_rel], 0)
    return _expand_runs(_view(starts)[l_rel], cnt, start, _view(order))


def parallel_left_probe_indexed(
    left_keys: list[Column],
    right_keys: list[Column],
    right_index: KeyIndex,
    pool: SegmentPool,
    note: Optional[list] = None,
    left_index: Optional[KeyIndex] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Left-outer variant of :func:`parallel_probe_indexed` (inner probe
    plus NO_MATCH padding, exactly like the single-threaded composition)."""
    l_idx, r_idx = parallel_probe_indexed(left_keys, right_keys, right_index,
                                          pool, note, left_index)
    return pad_left_outer(l_idx, r_idx, len(left_keys[0]))


def _runs(sorted_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First index and length of each equal-value run in a sorted array."""
    change = np.empty(sorted_ids.shape[0], dtype=bool)
    change[0] = True
    np.not_equal(sorted_ids[1:], sorted_ids[:-1], out=change[1:])
    run_first = np.flatnonzero(change)
    run_lengths = np.diff(np.append(run_first, sorted_ids.shape[0]))
    return run_first, run_lengths


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


class AggregateSpec:
    """One aggregate to compute: kind plus its (optional) argument column.

    ``kind`` is one of ``PARALLEL_AGGREGATES``; ``count*`` takes no
    argument.  The argument is carried as raw values + null mask + SQL type
    so the reduction mirrors the executor's arithmetic exactly.
    """

    __slots__ = ("kind", "values", "mask", "sql_type")

    def __init__(
        self,
        kind: str,
        values: Optional[np.ndarray] = None,
        mask: Optional[np.ndarray] = None,
        sql_type: str = INT64,
    ):
        if kind not in PARALLEL_AGGREGATES:
            raise ExecutionError(f"unsupported aggregate kind {kind!r}")
        if kind != "count*" and values is None:
            raise ExecutionError(f"{kind} requires an argument column")
        self.kind = kind
        self.values = values
        self.mask = mask
        self.sql_type = sql_type


def _reduce_slice(
    spec: AggregateSpec,
    rows: Optional[np.ndarray],
    order: np.ndarray,
    starts: np.ndarray,
    row_counts: np.ndarray,
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Per-group reduction over ``rows`` (None = all), grouped by ``order``/
    ``starts``.  Mirrors ``Executor._compute_aggregate`` bit for bit."""
    if spec.kind == "count*":
        return row_counts.astype(np.int64, copy=False), None
    values = spec.values if rows is None else spec.values[rows]
    if spec.mask is None:
        mask = np.zeros(values.shape[0], dtype=bool)
    else:
        mask = spec.mask if rows is None else spec.mask[rows]
    sorted_values = values[order]
    sorted_mask = mask[order]
    valid_counts = np.add.reduceat((~sorted_mask).astype(np.int64), starts)
    if spec.kind == "count":
        return valid_counts, None
    dtype = values.dtype
    if spec.kind in ("min", "max"):
        if spec.sql_type == INT64:
            sentinel = np.iinfo(np.int64).max if spec.kind == "min" \
                else np.iinfo(np.int64).min
        else:
            sentinel = np.inf if spec.kind == "min" else -np.inf
        padded = np.where(sorted_mask, sentinel, sorted_values)
        reducer = np.minimum if spec.kind == "min" else np.maximum
        reduced = reducer.reduceat(padded, starts)
        empty = valid_counts == 0
        return reduced.astype(dtype, copy=False), empty if empty.any() else None
    # sum / avg: float64 accumulation in reference row order.
    padded = np.where(sorted_mask, 0, sorted_values)
    sums = np.add.reduceat(padded.astype(np.float64), starts)
    empty = valid_counts == 0
    empty = empty if empty.any() else None
    if spec.kind == "sum":
        if spec.sql_type == INT64:
            return sums.astype(np.int64), empty
        return sums, empty
    with np.errstate(invalid="ignore", divide="ignore"):
        averages = sums / valid_counts
    return averages, empty


def group_aggregate(
    keys: np.ndarray, specs: list[AggregateSpec]
) -> tuple[np.ndarray, list[tuple[np.ndarray, Optional[np.ndarray]]]]:
    """Single-threaded grouped aggregation: the parallel kernel's reference.

    Returns the sorted unique keys and, per spec, (values, null mask or
    None), one entry per group.
    """
    if keys.shape[0] == 0:
        empty = np.empty(0, dtype=keys.dtype)
        return empty, [
            (np.empty(0, dtype=np.int64), None) for _ in specs
        ]
    order, sorted_keys = stable_argsort(keys)
    starts = _boundaries(sorted_keys)
    row_counts = np.diff(np.append(starts, order.shape[0]))
    unique_keys = sorted_keys[starts]
    results = [
        _reduce_slice(spec, None, order, starts, row_counts) for spec in specs
    ]
    return unique_keys, results


def parallel_group_aggregate(
    keys: np.ndarray,
    specs: list[AggregateSpec],
    pool: SegmentPool,
) -> tuple[np.ndarray, list[tuple[np.ndarray, Optional[np.ndarray]]]]:
    """Partial-then-final grouped aggregation over segment partitions.

    Each partition holds *all* rows of its keys in original relative order,
    so per-partition aggregates are already final for those keys (even
    float sums reduce in the reference order); the final step only merges
    the disjoint per-partition group lists into global key order.
    Bit-identical to :func:`group_aggregate`.
    """
    if keys.shape[0] == 0:
        return group_aggregate(keys, specs)
    n_parts = pool.n_segments
    # Keys, their segment assignment, then each aggregate's argument and
    # null mask; one small per-key block per partition comes back.
    inputs = [keys, segment_assignment(keys, n_parts)]
    for spec in specs:
        inputs += (spec.values, spec.mask)
    kinds = tuple((spec.kind, spec.sql_type) for spec in specs)
    raw = _run(pool, _aggregate_partition, inputs,
               [(part, kinds) for part in range(n_parts)])
    partials = [p for p in raw if p is not None]
    merge, unique_keys = stable_argsort(np.concatenate([p[0] for p in partials]))
    merged: list[tuple[np.ndarray, Optional[np.ndarray]]] = []
    for position, spec in enumerate(specs):
        values = np.concatenate([p[1][position][0] for p in partials])[merge]
        if any(p[1][position][1] is not None for p in partials):
            mask = np.concatenate([
                p[1][position][1]
                if p[1][position][1] is not None
                else np.zeros(p[0].shape[0], dtype=bool)
                for p in partials
            ])[merge]
            mask = mask if mask.any() else None
        else:
            mask = None
        merged.append((values, mask))
    return unique_keys, merged


def _aggregate_partition(payload):
    """Kernel: one hash partition of partial-then-final aggregation
    (``None`` for a partition no key hashed to)."""
    (keys, seg, *arguments), (part, kinds) = payload
    rows = np.flatnonzero(_view(seg) == part)
    if rows.size == 0:
        return None
    specs = [
        AggregateSpec(kind, _view(arguments[2 * position]),
                      _view(arguments[2 * position + 1]), sql_type)
        for position, (kind, sql_type) in enumerate(kinds)
    ]
    order, sorted_keys = stable_argsort(_view(keys)[rows])
    starts = _boundaries(sorted_keys)
    row_counts = np.diff(np.append(starts, order.shape[0]))
    results = [
        _reduce_slice(spec, rows, order, starts, row_counts) for spec in specs
    ]
    return sorted_keys[starts], results
