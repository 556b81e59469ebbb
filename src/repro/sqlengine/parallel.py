"""The one GROUP BY reducer, and a retired join entry point.

:func:`_reduce_slice` is the per-group reducer the executor's GROUP BY
calls, over groups laid out by a sort or addressed directly
(:func:`_reduce_direct`).  Joins live in :mod:`repro.sqlengine.operators`
and run once, on the calling thread: the engine starts no thread.

:func:`parallel_join_indices` is a retired shell (see
:data:`repro.sqlengine.stats.RETIRED`): it is
:func:`~repro.sqlengine.operators.join_indices` and ignores its pool.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .errors import ExecutionError
from .operators import DirectGroups, KeyIndex, join_indices
from .types import INT64, Column

#: Aggregate kinds the reducer computes.
AGGREGATE_KINDS = frozenset({"count*", "count", "min", "max", "sum", "avg"})


def parallel_join_indices(
    left_keys: list[Column],
    right_keys: list[Column],
    pool,
    note: Optional[list] = None,
    right_index: Optional[KeyIndex] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Retired: :func:`~repro.sqlengine.operators.join_indices`, rows and
    note; ``pool`` is ignored."""
    return join_indices(left_keys, right_keys, right_index, note)


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
