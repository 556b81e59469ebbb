"""Segment-parallel kernel execution: the same kernels at fan-out k.

The MPP model in :mod:`repro.sqlengine.mpp` assigns rows to segments with a
splitmix64 hash of the key.  This module makes the segments real for the
two operators that dominate the reproduced workloads: equi-joins and keyed
aggregation.

* **Joins.**  :func:`repro.sqlengine.operators.plan_join` decides the
  route and names its kernel; a probe is independent per row, so
  :func:`run_join` cuts the probe side into ``pool.n_segments``
  contiguous chunks, runs that kernel once per chunk on a
  :class:`~repro.sqlengine.mpp.SegmentPool` worker against the shared
  build side (direct-address table or sorted order, built once by the
  planner) and lets the route lay the chunk outputs back to back — the
  one-chunk output, by construction.  There is no second join algorithm
  here: :func:`parallel_join_indices` is ``plan_join`` + ``run_join``.

* **Aggregation.**  :func:`parallel_group_aggregate` is
  partial-then-final: each hash partition groups its rows and computes
  complete per-key aggregates (all rows of a key live in one partition,
  in their original relative order, so even float sums reduce in the
  reference order), and the final step merges the disjoint per-partition
  group lists by key.  :func:`_reduce_slice` is the one per-group
  reducer — the partition kernel, :func:`group_aggregate` and the
  executor's serial GROUP BY all call it.

Every kernel is **bit-identical** at every fan-out, which the property
tests enforce against independent references.  numpy releases the GIL
inside its kernels, so chunks genuinely overlap on multi-core hosts; the
executor only fans out above ``PARALLEL_MIN_ROWS`` rows and when the pool
has more than one worker.

Each kernel is a module-level function of one ``(inputs, task)`` payload:
``inputs`` are the big arrays all tasks of a dispatch share, ``task`` the
few scalars that set one partition or chunk apart.  :func:`_run` is the
only function here that knows there are two kinds of pool: it has the pool
:meth:`~SegmentPool.share` the inputs — a thread pool hands the driver's
arrays back, a :class:`~repro.sqlengine.mpp.ProcessSegmentPool` copies
each once into shared memory (:mod:`repro.sqlengine.shm`) and returns
picklable descriptors — and :meth:`~SegmentPool.run_tasks` the kernel.
Inside a kernel :func:`~repro.sqlengine.shm.view_array` turns either form
into an ndarray, so threads and worker processes execute the same
statements on the same bytes.  A process pool that cannot export (text,
exhausted ``/dev/shm``, a single worker) returns ``None`` from ``share``
and the kernel runs on its threads.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ExecutionError
from .mpp import SegmentPool, segment_assignment
from .operators import (
    DirectGroups,
    JoinRoute,
    KeyIndex,
    _boundaries,
    plan_join,
    stable_argsort,
)
from .shm import view_array
from .types import INT64, Column

#: Below this many probe rows the dispatch overhead outweighs any overlap.
PARALLEL_MIN_ROWS = 1 << 17

#: Aggregate kinds the parallel partial-then-final path supports.
PARALLEL_AGGREGATES = frozenset({"count*", "count", "min", "max", "sum", "avg"})


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


# ---------------------------------------------------------------------------
# joins
# ---------------------------------------------------------------------------


def _probe_tasks(n_rows: int, n_chunks: int, *args) -> list[tuple]:
    """One ``(start, stop, *args)`` task per contiguous, in-order chunk
    covering ``n_rows`` probe rows."""
    bounds = [(n_rows * part) // n_chunks for part in range(n_chunks + 1)]
    return [
        (bounds[part], bounds[part + 1], *args)
        for part in range(n_chunks)
        if bounds[part] < bounds[part + 1]
    ]


def run_join(route: JoinRoute, pool: SegmentPool) -> tuple[np.ndarray, np.ndarray]:
    """A planned, chunkable join at fan-out ``pool.n_segments``: the
    route's kernel once per contiguous probe chunk.  Reading the lazy
    index properties was the planner's job, so the workers share arrays
    that already exist; on a process pool they are cached by identity, so
    a warm loop re-probing the same stored index exports nothing new."""
    inputs = route.inputs
    if route.probe_column is not None:
        inputs = (route.probe_column, *inputs[1:])
    tasks = _probe_tasks(route.n_probe, pool.n_segments, *route.scalars)
    return route.combine(_run(pool, route.kernel, inputs, tasks))


def parallel_join_indices(
    left_keys: list[Column],
    right_keys: list[Column],
    pool: SegmentPool,
    note: Optional[list] = None,
    left_index: Optional[KeyIndex] = None,
    right_index: Optional[KeyIndex] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Inner equi-join chunked over ``pool``, whatever its size:
    :func:`~repro.sqlengine.operators.join_indices` at fan-out
    ``pool.n_segments``, bit-identical to it by construction.

    Shapes a pool cannot chunk (multi-column, text or NULL-bearing keys,
    joins no row of which can match) run at fan-out 1.  The name dates
    from a hash-partitioned join this module no longer has; it survives
    because ``perf/bench.py`` and the tests call it — without an index it
    now is the serial no-index route (one build-side sort, then the
    sorted-runs probe) over k chunks.
    """
    route = plan_join(left_keys, right_keys, left_index, right_index)
    if note is not None:
        note.append(route.note(route.chunkable))
    return run_join(route, pool) if route.chunkable else route.run()


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
    order: Optional[np.ndarray],
    starts: Optional[np.ndarray],
    row_counts: np.ndarray,
    direct: Optional[DirectGroups] = None,
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """The one per-group reducer: ``(values, null mask or None)`` with one
    entry per group.  ``rows`` (None = all) picks a partition's rows out
    of the argument; ``order`` (None = they already lie group by group)
    sorts those so that group ``g`` is positions ``starts[g]`` up to
    ``starts[g + 1]``, of which there must be at least one.  With
    ``direct`` the groups are addressed, not laid out: ``order`` and
    ``starts`` are unused and the kinds are count, min and max."""
    if spec.kind == "count*":
        return row_counts.astype(np.int64, copy=False), None
    values, mask = spec.values, spec.mask
    if rows is not None:
        values = values[rows]
        mask = None if mask is None else mask[rows]
    if direct is not None:
        return _reduce_direct(spec, values, mask, row_counts, direct)
    if mask is None:
        sorted_mask = np.zeros(
            (values if order is None else order).shape[0], dtype=bool)
    else:
        sorted_mask = mask if order is None else mask[order]
    valid_counts = np.add.reduceat((~sorted_mask).astype(np.int64), starts)
    if spec.kind == "count":
        return valid_counts, None
    sorted_values = values if order is None else values[order]
    dtype = values.dtype
    if spec.kind in ("min", "max"):
        padded = np.where(sorted_mask, _sentinel(spec, dtype), sorted_values)
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


def _sentinel(spec: AggregateSpec, dtype: np.dtype):
    """The value no argument of a min / max beats — what a NULL row or an
    untouched slot holds."""
    low = spec.kind == "max"
    if dtype.kind == "b":
        return not low
    if dtype.kind == "i":
        return np.iinfo(dtype).min if low else np.iinfo(dtype).max
    return -np.inf if low else np.inf


def _reduce_direct(
    spec: AggregateSpec,
    values: np.ndarray,
    mask: Optional[np.ndarray],
    row_counts: np.ndarray,
    direct: DirectGroups,
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """:func:`_reduce_slice` over direct-addressed groups: one scatter
    reduction into a table of ``direct.span`` slots, read back at the
    slots that occur."""
    slots = direct.slots
    if mask is None:
        valid_counts = row_counts.astype(np.int64, copy=False)
    else:
        valid_counts = np.bincount(
            slots[~mask], minlength=direct.span)[direct.present]
    if spec.kind == "count":
        return valid_counts, None
    if spec.kind not in ("min", "max"):
        raise ExecutionError(f"{spec.kind} has no direct-address reduction")
    sentinel = _sentinel(spec, values.dtype)
    table = np.full(direct.span, sentinel, dtype=values.dtype)
    if mask is not None:
        values = np.where(mask, sentinel, values)
    reducer = np.minimum if spec.kind == "min" else np.maximum
    with np.errstate(invalid="ignore"):  # NaN arguments propagate, quietly
        reducer.at(table, slots, values)
    empty = valid_counts == 0
    return table[direct.present], empty if empty.any() else None


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
    rows = np.flatnonzero(view_array(seg) == part)
    if rows.size == 0:
        return None
    specs = [
        AggregateSpec(kind, view_array(arguments[2 * position]),
                      view_array(arguments[2 * position + 1]), sql_type)
        for position, (kind, sql_type) in enumerate(kinds)
    ]
    order, sorted_keys = stable_argsort(view_array(keys)[rows])
    starts = _boundaries(sorted_keys)
    row_counts = np.diff(np.append(starts, order.shape[0]))
    results = [
        _reduce_slice(spec, rows, order, starts, row_counts) for spec in specs
    ]
    return sorted_keys[starts], results
