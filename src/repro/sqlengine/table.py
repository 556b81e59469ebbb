"""Stored tables and the catalog.

Tables carry a **per-column index cache** (:meth:`Table.index_for`): the
first join that builds on a stored column builds a
:class:`~repro.sqlengine.operators.KeyIndex` (row count, uniqueness,
sortedness, min/max — five numbers, no array) and caches it on the
table; subsequent joins against the same column read their route off it
instead of re-scanning the keys (a GROUP BY reads no index: it takes its
layout off the key column).  Any mutation (``INSERT`` append,
``TRUNCATE``) empties the cache — a stale index can therefore never be
observed.  The paper's algorithms join the per-round ``reps``
table two to three times per contraction round, which is exactly the reuse
pattern this cache targets.

Next to the indexes, and invalidated with them, a table caches the
**dictionary encoding** of a NULL-free int64 column
(:meth:`Table.encoded_column`): the sorted distinct values and each row's
position among them, computed the first time a join gathers the column
into at least as many rows as it has — and the **joint encoding** of
several such columns over one dictionary (:meth:`Table.joint_encoding`),
computed the first time a UNION ALL of unfiltered scans of the table
stacks them (see :mod:`repro.sqlengine.executor`).  Both are built by
:func:`~repro.sqlengine.operators.encode_values`.  The stored columns
themselves never change form.  Each cache is filled once between
mutations: every statement after the first that reads the ``reps``
table shares its one index and, above all, its one dictionary *object*,
which is how kernels recognise codes they may compare.  Statements run
one at a time, so a fill needs no lock.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from .errors import CatalogError, ExecutionError
from .operators import KeyIndex, build_key_index, encode_values
from .types import INT64, TEXT, Column, dtype_for


class Table:
    """A named, column-store table with an optional distribution column.

    Tables are created whole (``CREATE TABLE ... AS``) or appended to
    (``INSERT``); rows are never updated in place, matching how the paper's
    algorithms use the database (write-once temporary tables that are
    renamed and dropped).
    """

    def __init__(
        self,
        name: str,
        columns: dict[str, Column],
        distribution_column: Optional[str] = None,
    ):
        if not columns:
            raise ExecutionError(f"table {name!r} needs at least one column")
        lengths = {len(col) for col in columns.values()}
        if len(lengths) != 1:
            raise ExecutionError(f"ragged columns while creating table {name!r}")
        if distribution_column is not None and distribution_column not in columns:
            raise CatalogError(
                f"distribution column {distribution_column!r} is not a column of "
                f"table {name!r}"
            )
        self.name = name
        self.columns = dict(columns)
        self.distribution_column = distribution_column
        self._byte_size: Optional[int] = None
        #: Both caches are emptied on every mutation.
        self._indexes: dict[str, KeyIndex] = {}
        #: Encodings by sorted column names: {name: column}.
        self._encoded: dict[tuple[str, ...], dict[str, Column]] = {}

    @property
    def n_rows(self) -> int:
        return len(next(iter(self.columns.values())))

    @property
    def column_names(self) -> list[str]:
        return list(self.columns)

    def column(self, name: str) -> Column:
        try:
            return self.columns[name]
        except KeyError:
            raise CatalogError(f"table {self.name!r} has no column {name!r}")

    def byte_size(self) -> int:
        """Storage footprint (cached; appends invalidate the cache)."""
        if self._byte_size is None:
            self._byte_size = sum(col.byte_size() for col in self.columns.values())
        return self._byte_size

    def append(self, columns: dict[str, Column]) -> int:
        """Append rows; returns the number of bytes added."""
        if set(columns) != set(self.columns):
            raise ExecutionError(
                f"INSERT columns {sorted(columns)} do not match table "
                f"{self.name!r} columns {sorted(self.columns)}"
            )
        before = self.byte_size()
        for name, col in columns.items():
            self.columns[name] = Column.concat([self.columns[name], col])
        self._byte_size = None
        self._invalidate_indexes()
        return self.byte_size() - before

    def truncate(self) -> int:
        """Drop all rows, keeping the schema; returns the bytes freed."""
        freed = self.byte_size()
        for name, col in list(self.columns.items()):
            self.columns[name] = Column(
                np.empty(0, dtype=dtype_for(col.sql_type)), col.sql_type)
        self._byte_size = None
        self._invalidate_indexes()
        return freed

    # -- per-column index cache --------------------------------------------

    def _invalidate_indexes(self) -> None:
        self._indexes.clear()
        self._encoded.clear()

    def index_for(self, column_name: str) -> tuple[Optional[KeyIndex], bool]:
        """The index of a column (built and cached on first use), and
        whether *this call* built it (and so counts the cache miss); later
        calls share it.

        The index is ``None`` for columns that cannot be indexed: text
        columns (object storage, no cheap stats) and columns with NULLs
        (the join kernels pre-filter NULL rows, which would invalidate
        positions).
        """
        cached = self._indexes.get(column_name)
        if cached is not None:
            return cached, False
        col = self.column(column_name)
        if col.sql_type == TEXT or col.mask is not None:
            return None, False
        # An encoded column is indexed through its codes: no value is
        # gathered.
        index = build_key_index(col.storage, col.dictionary)
        self._indexes[column_name] = index
        return index, True

    def cached_encoding(self, column_name: str) -> Optional[Column]:
        """The encoded form :meth:`encoded_column` cached, if it has."""
        entry = self._encoded.get((column_name,))
        return None if entry is None else entry[column_name]

    def encoded_column(self, column_name: str) -> Optional[Column]:
        """The dictionary-encoded form of a stored column (built and cached
        on first use, like an index), or ``None`` for a column that has no
        such form: anything but NULL-free int64.  Every caller gets the
        same dictionary object until the table changes."""
        col = self.column(column_name)
        if col.codes is not None:
            return col
        joint = self.joint_encoding((column_name,))
        return None if joint is None else joint[column_name]

    def joint_encoding(
        self, column_names: Iterable[str]
    ) -> Optional[dict[str, Column]]:
        """Columns encoded over **one** dictionary — the sorted distinct
        values of all of them — by name; ``None`` unless every one is
        NULL-free int64.  Built and cached per set of names, like
        :meth:`encoded_column` (a set of one), so every caller gets the
        same dictionary object.  Columns already stored over one
        dictionary are their own joint encoding."""
        names = tuple(sorted(set(column_names)))
        entry = self._encoded.get(names)
        if entry is not None:
            return entry
        columns = [self.column(name) for name in names]
        if any(col.sql_type != INT64 or col.mask is not None
               for col in columns):
            return None
        dictionary = columns[0].dictionary
        if dictionary is not None and all(
                col.dictionary is dictionary for col in columns[1:]):
            return dict(zip(names, columns))
        values = [col.values for col in columns]
        dictionary, codes = encode_values(
            values[0] if len(values) == 1 else np.concatenate(values))
        n = self.n_rows
        encoded = {
            name: Column.encoded(codes[i * n:(i + 1) * n], dictionary,
                                 column_values)
            for i, (name, column_values) in enumerate(zip(names, values))
        }
        self._encoded[names] = encoded
        return encoded


class Catalog:
    """Name → table mapping with rename/drop semantics.

    Lookups are case-insensitive (keys are lower-cased), but a table's
    ``name`` — the one error messages and :meth:`names` show — keeps the
    casing it was given.  ``rename`` in particular must not silently
    lower-case the user-visible name while normalising its lookup key.
    """

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._tables

    def get(self, name: str) -> Table:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise CatalogError(f"unknown table {name!r}")

    def put(self, table: Table) -> None:
        key = table.name.lower()
        if key in self._tables:
            raise CatalogError(f"table {table.name!r} already exists")
        self._tables[key] = table

    def drop(self, name: str) -> Table:
        try:
            return self._tables.pop(name.lower())
        except KeyError:
            raise CatalogError(f"unknown table {name!r}")

    def rename(self, old: str, new: str) -> Table:
        if new.lower() in self._tables:
            raise CatalogError(f"table {new!r} already exists")
        try:
            table = self._tables.pop(old.lower())
        except KeyError:
            raise CatalogError(f"unknown table {old!r}")
        table.name = new
        self._tables[new.lower()] = table
        return table

    def names(self) -> list[str]:
        """User-visible table names, ordered by their lookup key."""
        return [self._tables[key].name for key in sorted(self._tables)]

    def total_bytes(self) -> int:
        return sum(t.byte_size() for t in self._tables.values())
