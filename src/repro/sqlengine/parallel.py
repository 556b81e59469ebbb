"""A retired join entry point.

:func:`parallel_join_indices` is a retired shell (see
:data:`repro.sqlengine.stats.RETIRED`): it is
:func:`~repro.sqlengine.operators.join_indices` and ignores its pool.
Joins, and the GROUP BY reducer, live in :mod:`repro.sqlengine.operators`
and run once, on the calling thread: the engine starts no thread.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .operators import KeyIndex, join_indices
from .types import Column


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
