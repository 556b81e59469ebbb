"""Column types and the column-store value container.

The engine is a column store: a relation is a list of named
:class:`Column` objects of equal length.  Values live in numpy arrays
(``int64``, ``float64``, ``bool`` or ``object`` for text) with an optional
boolean null mask, which keeps whole-column operations vectorised — the
property that makes a Python-hosted engine fast enough to run the paper's
workloads at laptop scale.

A column has one of **two physical forms**.  The *plain* form is the
``values`` array itself.  The *dictionary-encoded* form, for NULL-free
int64 data only, is ``codes`` — one position per row into ``dictionary``,
the column's sorted, duplicate-free values — with ``values`` gathered
through the codes the first time something asks for them.  The dictionary
is strictly increasing, so codes compare exactly as their values do:
columns sharing one dictionary *object* are joined, compared, grouped and
de-duplicated on their dense codes and the 64-bit values are never
touched.  The form is invisible to SQL and to the space accounting
(:meth:`Column.byte_size` charges 8 bytes per cell either way); who
produces it is the executor's business (see
:mod:`repro.sqlengine.executor`), and ``take`` carries it along.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import ExecutionError

#: SQL type names used by the engine.
INT64 = "int64"
FLOAT64 = "float64"
BOOL = "bool"
TEXT = "text"

_NUMPY_DTYPES = {
    INT64: np.int64,
    FLOAT64: np.float64,
    BOOL: np.bool_,
    TEXT: object,
}

#: Storage footprint per row used for the space accounting that feeds the
#: Table IV / Table V reproductions.  Numeric cells cost 8 bytes like the
#: database in the paper; booleans 1; text is charged per character.
_FIXED_WIDTH = {INT64: 8, FLOAT64: 8, BOOL: 1}


def dtype_for(sql_type: str) -> np.dtype:
    """Return the numpy dtype backing a SQL type name."""
    try:
        return np.dtype(_NUMPY_DTYPES[sql_type])
    except KeyError:
        raise ExecutionError(f"unknown SQL type {sql_type!r}")


def sql_type_of_value(value: object) -> str:
    """Infer the SQL type of a Python literal."""
    if isinstance(value, bool):
        return BOOL
    if isinstance(value, int):
        return INT64
    if isinstance(value, float):
        return FLOAT64
    if isinstance(value, str):
        return TEXT
    raise ExecutionError(f"unsupported literal type {type(value).__name__}")


class Column:
    """One column of values plus an optional null mask.

    ``mask`` is ``None`` when the column contains no NULLs (the common case,
    kept mask-free so the hot paths skip mask bookkeeping); otherwise it is a
    boolean array where ``True`` marks NULL.

    ``codes`` / ``dictionary`` are set on the dictionary-encoded form only
    (:meth:`encoded`); ``values`` then materialises on first read and stays.
    """

    __slots__ = ("_values", "sql_type", "mask", "codes", "dictionary")

    def __init__(self, values: np.ndarray, sql_type: str,
                 mask: Optional[np.ndarray] = None):
        self._values = values
        self.sql_type = sql_type
        self.mask = mask if mask is not None and mask.any() else None
        self.codes: Optional[np.ndarray] = None
        self.dictionary: Optional[np.ndarray] = None

    @classmethod
    def encoded(cls, codes: np.ndarray, dictionary: np.ndarray,
                values: Optional[np.ndarray] = None) -> "Column":
        """The dictionary-encoded form: row ``i`` holds
        ``dictionary[codes[i]]``; ``dictionary`` is sorted and unique.
        ``values`` may hand over the rows where they already exist.  The
        dictionary is made read-only here: columns, indexes and UDF
        evaluations that share it key on its identity.  So are the codes:
        a join whose build rows are the probe codes hands them on as its
        row map."""
        dictionary.flags.writeable = False
        codes.flags.writeable = False
        column = cls(values, INT64)
        column.codes = codes
        column.dictionary = dictionary
        return column

    @property
    def values(self) -> np.ndarray:
        values = self._values
        if values is None:
            values = self._values = self.dictionary[self.codes]
        return values

    @property
    def storage(self) -> np.ndarray:
        """The array the rows physically live in: ``codes`` on the encoded
        form, ``values`` otherwise — what a kernel that honours the form
        reads."""
        return self.values if self.codes is None else self.codes

    def with_storage(self, storage: np.ndarray) -> "Column":
        """A NULL-free column of this one's type and form over other rows:
        ``storage`` holds their values, or on the encoded form their codes
        into this column's dictionary — selected rows, a GROUP BY's or a
        DISTINCT's surviving keys."""
        if self.codes is None:
            return Column(storage, self.sql_type)
        return Column.encoded(storage, self.dictionary)

    def __len__(self) -> int:
        return int(self.storage.shape[0])

    def __repr__(self) -> str:
        form = "plain" if self.codes is None else "encoded"
        return f"Column({self.sql_type}, {len(self)} rows, {form})"

    @classmethod
    def from_values(cls, values: np.ndarray | Sequence, sql_type: str | None = None,
                    mask: Optional[np.ndarray] = None) -> "Column":
        """Build a column from raw values, inferring the SQL type if needed."""
        array = np.asarray(values)
        if sql_type is None:
            if array.dtype == np.bool_:
                sql_type = BOOL
            elif np.issubdtype(array.dtype, np.integer):
                sql_type = INT64
            elif np.issubdtype(array.dtype, np.floating):
                sql_type = FLOAT64
            else:
                sql_type = TEXT
        if sql_type != TEXT:
            array = array.astype(dtype_for(sql_type), copy=False)
        else:
            array = array.astype(object, copy=False)
            if mask is None and array.shape[0]:
                # Ingested object arrays mark NULL as ``None``; fold that
                # into the mask so every consumer can trust mask-is-truth.
                nulls = np.asarray(array == None, dtype=bool)  # noqa: E711
                if nulls.any():
                    mask = nulls
        return cls(array, sql_type, mask)

    @classmethod
    def constant(cls, value: object, length: int, sql_type: str | None = None) -> "Column":
        """A column holding ``length`` copies of one value (or NULL)."""
        if value is None:
            sql_type = sql_type or INT64
            values = np.zeros(length, dtype=dtype_for(sql_type))
            return cls(values, sql_type, np.ones(length, dtype=bool))
        sql_type = sql_type or sql_type_of_value(value)
        values = np.full(length, value, dtype=dtype_for(sql_type))
        return cls(values, sql_type)

    @classmethod
    def nulls(cls, length: int, sql_type: str = INT64) -> "Column":
        """An all-NULL column (used to pad unmatched outer-join rows)."""
        return cls.constant(None, length, sql_type)

    def take(self, indices: np.ndarray) -> "Column":
        """Gather rows by position, in the column's own form."""
        if self.codes is not None:
            return self.with_storage(self.codes[indices])
        mask = self.mask[indices] if self.mask is not None else None
        return Column(self._values[indices], self.sql_type, mask)

    def null_mask(self) -> np.ndarray:
        """Return a boolean mask of NULL positions (materialised)."""
        if self.mask is None:
            return np.zeros(len(self), dtype=bool)
        return self.mask

    def non_null_values(self) -> np.ndarray:
        """Values at non-NULL positions."""
        if self.mask is None:
            return self.values
        return self.values[~self.mask]

    def byte_size(self) -> int:
        """Storage footprint used for the engine's space accounting."""
        n = len(self)
        if self.sql_type in _FIXED_WIDTH:
            size = _FIXED_WIDTH[self.sql_type] * n
        else:
            size = sum(len(str(v)) for v in self.values) + n
        if self.mask is not None:
            size += n
        return size

    def to_list(self) -> list:
        """Python list with ``None`` at NULL positions (for small results)."""
        raw = self.values.tolist()
        if self.mask is None:
            return raw
        return [None if null else v for v, null in zip(raw, self.mask.tolist())]

    @staticmethod
    def concat(columns: Iterable["Column"]) -> "Column":
        """Vertically concatenate columns of a compatible type.  Encoded
        columns over one dictionary object concatenate their codes — a
        UNION ALL of one table's jointly encoded columns (see
        :mod:`repro.sqlengine.executor`) stays encoded, and no value is
        gathered; any other mix concatenates values."""
        columns = list(columns)
        if not columns:
            raise ExecutionError("cannot concatenate zero columns")
        dictionary = columns[0].dictionary
        if dictionary is not None and all(
                col.dictionary is dictionary for col in columns[1:]):
            return Column.encoded(
                np.concatenate([col.codes for col in columns]), dictionary)
        sql_type = columns[0].sql_type
        for col in columns[1:]:
            if col.sql_type != sql_type:
                # Integer/float mixes are promoted, anything else is an error.
                if {col.sql_type, sql_type} == {INT64, FLOAT64}:
                    sql_type = FLOAT64
                else:
                    raise ExecutionError(
                        f"type mismatch in UNION ALL: {sql_type} vs {col.sql_type}"
                    )
        values = np.concatenate([
            col.values.astype(dtype_for(sql_type), copy=False) if sql_type != TEXT
            else col.values
            for col in columns
        ])
        if any(col.mask is not None for col in columns):
            mask = np.concatenate([col.null_mask() for col in columns])
        else:
            mask = None
        return Column(values, sql_type, mask)
