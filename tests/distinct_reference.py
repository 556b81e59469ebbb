"""What a DISTINCT must return, and which branch of the one kernel
returned it — the reference the kernel tests diff against, and a spy for
the tests that hold a branch to its traffic.  No engine code calls either.

``operators.distinct_rows`` returns the distinct rows in ascending key
order: the sorted set of row tuples, NULLs last, NaN after every other
float, and each row holding a NaN kept apart (NaN equals nothing, so no
two such rows are one).  No counter says which branch served a DISTINCT;
:func:`record_branches` does, by wrapping the two branch kernels.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.sqlengine import operators
from repro.sqlengine.types import Column

#: Every branch of ``operators.distinct_rows``.
BRANCHES = ("packed-codes", "packed-offsets", "grouped")


def _token(value) -> tuple:
    """A value as a sortable token: values first, then NaN, then NULL."""
    if value is None:
        return (2, 0)
    if isinstance(value, float) and math.isnan(value):
        return (1, 0)
    return (0, value)


def row_tokens(columns: list[Column]) -> list[tuple]:
    """The rows of ``columns``, in order, as tuples of tokens."""
    return [tuple(_token(value) for value in row)
            for row in zip(*(col.to_list() for col in columns))]


def reference_rows(columns: list[Column],
                   rows: Optional[np.ndarray] = None) -> list[tuple]:
    """The distinct rows of ``columns`` at ``rows`` (positions, or a
    boolean mask over every row; ``None``: every row) as token tuples, in
    the order a DISTINCT must return them."""
    table = row_tokens(columns)
    if rows is not None:
        if rows.dtype == np.bool_:
            rows = np.flatnonzero(rows)
        table = [table[i] for i in rows.tolist()]
    seen: set = set()
    kept = []
    for row in table:
        if any(token[0] == 1 for token in row):
            kept.append(row)
        elif row not in seen:
            seen.add(row)
            kept.append(row)
    return sorted(kept)


def packed_branch(keys) -> str:
    """The branch a packed DISTINCT over these keys reports:
    ``packed-offsets`` when a plain column packed its values' offsets,
    ``packed-codes`` when every column was encoded."""
    if any(key.column.codes is None for key in keys):
        return "packed-offsets"
    return "packed-codes"


def record_branches(monkeypatch) -> list[str]:
    """Spy on ``distinct_rows``: the returned list receives the branch of
    every DISTINCT run from here on, in call order."""
    taken: list[str] = []
    packed = operators._unpack
    grouped = operators._grouped_distinct

    def recording_packed(keys, words):
        taken.append(packed_branch(keys))
        return packed(keys, words)

    def recording_grouped(columns):
        taken.append("grouped")
        return grouped(columns)

    monkeypatch.setattr(operators, "_unpack", recording_packed)
    monkeypatch.setattr(operators, "_grouped_distinct", recording_grouped)
    return taken
