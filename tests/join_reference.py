"""The sort-merge join the kernel tests diff *index arrays* against — what
an outside SQL engine cannot referee.  No engine code calls it."""

from __future__ import annotations

import numpy as np

from repro.sqlengine.errors import ExecutionError
from repro.sqlengine.operators import _empty_pair, _non_null_rows
from repro.sqlengine.types import TEXT, Column


def _reference_keys(columns: list[Column]) -> np.ndarray:
    """One comparable array for a key of any width, in a form the engine
    does not use: a single column as it is; numeric columns as one
    structured (void) record per row, compared field by field; anything
    with text as Python tuples, each value tagged so that NaN sorts after
    every float and equals NaN, as in a numpy sort."""
    arrays = [col.values if col.sql_type == TEXT
              else np.ascontiguousarray(col.values) for col in columns]
    if len(arrays) == 1:
        return arrays[0]
    if all(a.dtype != object for a in arrays):
        stacked = np.ascontiguousarray(np.stack(arrays, axis=1))
        return stacked.view([("", stacked.dtype)] * stacked.shape[1]).ravel()
    keys = np.empty(arrays[0].shape[0], dtype=object)
    for row, values in enumerate(zip(*arrays)):
        keys[row] = tuple((1, 0.0) if value != value else (0, value)
                          for value in values)
    return keys


def merge_join_indices(
    left_keys: list[Column], right_keys: list[Column]
) -> tuple[np.ndarray, np.ndarray]:
    """The seed sort-merge join, kept as the tests' reference.

    Produces identical output to :func:`join_indices` and shares none of
    its machinery: numpy's own stable ``argsort`` and ``searchsorted``,
    and a second copy — the only one, on purpose — of the run-expansion
    arithmetic of :func:`_expand_runs`, and its own key form
    (:func:`_reference_keys`) where the engine packs words, so that the
    reference cannot inherit a mistake from the kernels it checks.
    """
    if len(left_keys) != len(right_keys) or not left_keys:
        raise ExecutionError("join requires matching non-empty key lists")
    sides = []
    for columns in (left_keys, right_keys):
        keys = _reference_keys(columns)
        rows = np.arange(keys.shape[0])
        valid = _non_null_rows(columns)
        if valid is not None:
            keys, rows = keys[valid], rows[valid]
        sides.append((keys, rows))
    (lk, left_rows), (rk, right_rows) = sides
    if lk.shape[0] == 0 or rk.shape[0] == 0:
        return _empty_pair()
    r_order = np.argsort(rk, kind="stable")
    r_sorted = rk[r_order]
    lo = np.searchsorted(r_sorted, lk, side="left")
    counts = np.searchsorted(r_sorted, lk, side="right") - lo
    total = int(counts.sum())
    if total == 0:
        return _empty_pair()
    l_idx = np.repeat(np.arange(lk.shape[0]), counts)
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
    within_run = np.arange(total) - np.repeat(offsets, counts)
    r_idx = r_order[np.repeat(lo, counts) + within_run]
    return left_rows[l_idx], right_rows[r_idx]
