"""The sort-merge join the kernel tests diff *index arrays* against — what
an outside SQL engine cannot referee.  No engine code calls it."""

from __future__ import annotations

import numpy as np

from repro.sqlengine.errors import ExecutionError
from repro.sqlengine.operators import (
    _empty_pair,
    _keys_as_arrays,
    _non_null_rows,
    _pack_keys,
)
from repro.sqlengine.types import Column


def merge_join_indices(
    left_keys: list[Column], right_keys: list[Column]
) -> tuple[np.ndarray, np.ndarray]:
    """The seed sort-merge join, kept as the tests' reference.

    Produces identical output to :func:`join_indices` and shares none of
    its machinery: numpy's own stable ``argsort`` and ``searchsorted``,
    and a second copy — the only one, on purpose — of the run-expansion
    arithmetic of :func:`_expand_runs`, so that the reference cannot
    inherit a mistake from the kernels it checks.
    """
    if len(left_keys) != len(right_keys) or not left_keys:
        raise ExecutionError("join requires matching non-empty key lists")
    sides = []
    for columns in (left_keys, right_keys):
        keys = _pack_keys(_keys_as_arrays(columns))
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
