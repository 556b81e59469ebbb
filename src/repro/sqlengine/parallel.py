"""Segment-parallel join execution, and the one GROUP BY reducer.

* **Joins.**  :func:`repro.sqlengine.operators.plan_join` decides the
  route and names its kernel; a probe is independent per row, so
  :func:`run_join` cuts the probe side into ``pool.n_segments``
  contiguous chunks, runs that kernel once per chunk on a
  :class:`~repro.sqlengine.mpp.SegmentPool` worker against the shared
  build side (direct-address table or sorted order, built once by the
  planner) and lets the route lay the chunk outputs back to back — the
  one-chunk output, by construction.  There is no second join algorithm
  here: :func:`parallel_join_indices` is ``plan_join`` + ``run_join``.

* **Aggregation** is not fanned out.  :func:`_reduce_slice` is the
  per-group reducer the executor's GROUP BY calls, over groups laid out
  by a sort or addressed directly (:func:`_reduce_direct`).

Every join is **bit-identical** at every fan-out, which the property
tests enforce against independent references.  numpy releases the GIL
inside its kernels, so chunks can overlap on multi-core hosts; the
executor only fans out above ``PARALLEL_MIN_ROWS`` rows and when the pool
has more than one worker.  The chunks of one join are the only work that
ever leaves the calling thread: statements execute one at a time.

Each kernel is a module-level function of one ``(inputs, task)`` payload:
``inputs`` are the big arrays all tasks of a dispatch share, ``task`` the
few scalars that set one chunk apart.  A kernel reads nothing else — no
table, catalog, cache or statistics object — so the pool's threads share
no mutable engine state.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .errors import ExecutionError
from .mpp import SegmentPool
from .operators import (
    DirectGroups,
    JoinRoute,
    KeyIndex,
    plan_join,
    spelled_out,
)
from .types import INT64, Column

#: Below this many probe rows the dispatch overhead outweighs any overlap.
PARALLEL_MIN_ROWS = 1 << 17

#: Aggregate kinds the reducer computes.
AGGREGATE_KINDS = frozenset({"count*", "count", "min", "max", "sum", "avg"})


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


def run_join(
    route: JoinRoute, pool: SegmentPool
) -> tuple[Optional[np.ndarray], np.ndarray]:
    """A planned, chunkable join at fan-out ``pool.n_segments``: the
    route's kernel once per contiguous probe chunk.  Reading the lazy
    index properties was the planner's job, so the workers share arrays
    that already exist.  Left rows are ``None`` as
    :meth:`JoinRoute.combine` decides."""
    tasks = _probe_tasks(route.n_probe, pool.n_segments, *route.scalars)
    pairs = pool.map(route.kernel, [(route.inputs, task) for task in tasks])
    return route.combine(pairs, [task[:2] for task in tasks])


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
    return spelled_out(*(run_join(route, pool) if route.chunkable
                         else route.run()))


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


class AggregateSpec:
    """One aggregate to compute: kind plus its (optional) argument column.

    ``kind`` is one of ``AGGREGATE_KINDS``; ``count*`` takes no
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
        if kind not in AGGREGATE_KINDS:
            raise ExecutionError(f"unsupported aggregate kind {kind!r}")
        if kind != "count*" and values is None:
            raise ExecutionError(f"{kind} requires an argument column")
        self.kind = kind
        self.values = values
        self.mask = mask
        self.sql_type = sql_type


def _reduce_slice(
    spec: AggregateSpec,
    order: Optional[np.ndarray],
    starts: Optional[np.ndarray],
    row_counts: np.ndarray,
    direct: Optional[DirectGroups] = None,
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """The one per-group reducer: ``(values, null mask or None)`` with one
    entry per group.  ``order`` (None = the rows already lie group by
    group) sorts the argument's rows so that group ``g`` is positions
    ``starts[g]`` up to ``starts[g + 1]``, of which there must be at least
    one.  With
    ``direct`` the groups are addressed, not laid out: ``order`` and
    ``starts`` are unused and the kinds are count, min and max.  A
    NULL-free argument (``mask`` None) skips the NULL bookkeeping: every
    row counts, nothing is padded and no group comes out empty."""
    if spec.kind == "count*":
        return row_counts.astype(np.int64, copy=False), None
    values, mask = spec.values, spec.mask
    if direct is not None:
        return _reduce_direct(spec, values, mask, row_counts, direct)
    if mask is None:
        sorted_mask = None
        valid_counts = row_counts.astype(np.int64, copy=False)
    else:
        sorted_mask = mask if order is None else mask[order]
        valid_counts = np.add.reduceat((~sorted_mask).astype(np.int64),
                                       starts)
    if spec.kind == "count":
        return valid_counts, None
    sorted_values = values if order is None else values[order]
    dtype = values.dtype
    empty = None
    if sorted_mask is not None:
        empty = valid_counts == 0
        empty = empty if empty.any() else None
    if spec.kind in ("min", "max"):
        padded = sorted_values if sorted_mask is None else np.where(
            sorted_mask, _sentinel(spec, dtype), sorted_values)
        reducer = np.minimum if spec.kind == "min" else np.maximum
        reduced = reducer.reduceat(padded, starts)
        return reduced.astype(dtype, copy=False), empty
    # sum / avg: float64 accumulation in reference row order.
    padded = sorted_values if sorted_mask is None else np.where(
        sorted_mask, 0, sorted_values)
    sums = np.add.reduceat(padded.astype(np.float64), starts)
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
