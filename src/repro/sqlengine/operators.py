"""Vectorised relational operator kernels.

These are the numpy building blocks the executor assembles plans from:
m:n equi-joins (inner and left outer), group-by boundary detection, and
DISTINCT.  All kernels but one are pure index arithmetic — they return row
index arrays rather than materialised rows, so the executor can gather only
the columns a query actually needs (:func:`distinct_rows` returns the
distinct rows themselves: it has no row to point at, having sorted words).
One index array may be *absent*: a join that matched every probe row
exactly once, in probe order, returns ``None`` for its left rows — the
identity map, which the executor then never builds, scans or gathers
through.  Every join of the contraction loop is such a join (each edge or
label row finds its one row of the per-vertex ``reps`` table).  The
public entry points (:func:`join_indices`, :func:`left_join_indices`)
spell the identity out as ``arange``.

**Joins** are planned and run in one call.  :func:`join_rows` is the
only place that decides how an equi-join runs, and it calls the route's
kernel once, over the whole probe side, on the calling thread — one of
three kernels:

* **no table at all** (:func:`_offset_probe`, the ``dense-offset``
  route) when the build side's cached index shows its keys sorted,
  unique and filling their whole domain — round 1's ``reps.v``, and
  every later one of a single-component input: key ``k`` is build row
  ``k - min``, so the probe keys, shifted, *are* the right rows.  The
  only work is the probe's bounds check, and none at all for codes;
* a **direct-address table** (:func:`_dense_probe`, ``dense-unique`` or
  ``dense-runs``) when the build-side key range is dense (span
  comparable to the row count, as with vertex IDs): O(n), no sort at
  all;
* a **sorted-order probe** (:func:`_sorted_probe`, the ``sorted`` route)
  for every other key — sparse 64-bit values in plain columns, floats,
  text — one binary search per row into unique integer build keys, a
  run expansion (:func:`_expand_runs`, the only one) into any others.
  The route sorts its build side, unless that side is stored sorted.

The route reads a build side's statistics — row count, uniqueness,
sortedness, bounds — off the :class:`KeyIndex` its stored table caches
(see :meth:`repro.sqlengine.table.Table.index_for`), else off the keys.
An index holds those five numbers and no array: the contraction loop's
joins need no more (they take ``dense-offset``, or a direct-address
table where a finished component leaves holes in the codes), and a
sorted build side is its own sorted order.

Two **dictionary-encoded** key columns sharing one dictionary (see
:mod:`repro.sqlengine.types`) are integer keys over one key space, the
dictionary's slots: they join on their codes through the same routes,
with the dictionary's length as their domain — no dense-span limit
applies and no 64-bit value is read.  Every join of the contraction loop
is such a join.

A multi-column key is one order-preserving int64 word per row
(:func:`pack_keys`, over both sides of a join), on which joins and GROUP
BY run their single-column kernels.  Nothing about the host — its core
count included — changes a route, its note or its output.

**Grouping** reads its layout off the key column it is handed.  One
NULL-free integer key — codes or values — that arrives non-decreasing
(a DISTINCT's leading column, any GROUP BY output) already lies group by
group: :func:`run_starts` finds the groups in one ``!=`` pass and every
aggregate reduces the rows where they lie.  Otherwise dense integer keys —
vertex ids, or any encoded column's codes — under count, min and max are
grouped by address (:func:`direct_group_rows`: a ``bincount`` and one
scatter reduction per aggregate), and every other key is sorted
(:func:`group_rows`: :func:`stable_argsort` of the key or its packed
word).  All three give the groups in ascending key order.

**DISTINCT** has one kernel and one row order: :func:`distinct_rows`
returns the distinct rows in ascending **key** order (so the next GROUP BY
or index over the leading column finds it sorted), as columns in the
input's forms.  NULL-free int64 keys pack each row's offsets — an encoded
column's codes, a plain column's values less their least — into one word
(a ``uint32`` when they fit 32 bits together, else an int64), value-sort
the words and unpack the survivors.  The packing runs over blocks of
rows (:func:`packed_distinct`): a whole-column DISTINCT is one block, and
a fused join→DISTINCT hands one block of its join chain's rows at a
time, with the rows its WHERE keeps there, so no edge-length column is
gathered, filtered or packed whole.  Every other key — NULLs,
floats, text, offsets wider than 63 bits together — takes the first row
of each :func:`group_rows` group, groups coming in key order too.

**Sort-merge grouping** (:func:`sorted_group_rows`) is the fallback of
:func:`group_rows` for multi-column float or text keys and NULL-bearing
inputs — NULLs sort last, and every NaN is a group of its own — and the
reference the kernel tests diff grouping *index arrays* against — what an
outside SQL engine cannot referee.  The join's sort-merge reference lives
with the tests (``tests/join_reference.py``): no engine code calls it.

Sparse keys in plain columns — stored field values, the baselines'
computed keys — are where sorting still costs, and at a million rows the cost
of every kernel above is cache misses, not comparisons.  Two primitives
keep the memory accesses sequential: :func:`stable_argsort` (vectorised
unstable sort, ties repaired by one value sort) builds every stable order
over a key column, and :func:`sorted_lookup` (needles radix-bucketed into
near-ascending order) is every probe of one by keys in arbitrary order.
Both are drop-in: same arrays as the numpy call they replace, which small
inputs still make.

Every join route is *plan-stable*: it returns exactly the same index
arrays, in exactly the same order, as the sort-merge reference.  The
property tests in ``tests/test_operators.py`` and the kernel matrix in
``tests/test_join_kernels.py`` enforce this, and it is what makes the
engine's output bit-for-bit reproducible regardless of which route the
planner picks.

Every kernel must behave on empty inputs, because the termination condition
of every reproduced algorithm ("repeat until the edge table is empty") makes
the final round's queries run over zero rows.
"""

from __future__ import annotations

import sys
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import ExecutionError
from .types import FLOAT64, INT64, Column

#: Right-index sentinel for unmatched rows in a left outer join.
NO_MATCH = -1

#: Dense-key dispatch: a direct-address table is used when the key span is
#: at most ``DENSE_SPAN_FACTOR`` times the build-side row count (or the
#: absolute floor, so tiny inputs with moderate spans still qualify), capped
#: to bound the slot-array allocation.
DENSE_SPAN_FACTOR = 4
DENSE_SPAN_FLOOR = 1 << 16
DENSE_SPAN_CAP = 1 << 24

#: Below this many rows the plain numpy call beats the cache-conscious
#: forms of :func:`stable_argsort` and :func:`sorted_lookup` (their fixed
#: cost is a handful of extra passes; they break even near a thousand rows).
CACHE_KERNEL_MIN_ROWS = 1 << 11

#: An input with at most this many descents is a few sorted runs, which
#: numpy's stable merge sort finishes in near-linear time (2 ns/row on two
#: runs, 39 on 64) — faster than any sort that ignores the order.
PRESORTED_MAX_DESCENTS = 64


# ---------------------------------------------------------------------------
# sorted-order primitives
# ---------------------------------------------------------------------------


def stable_argsort(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(order, values[order])`` with ``order`` equal to
    ``np.argsort(values, kind="stable")``.

    numpy's stable sort of 64-bit integers is a merge sort (134 ns/row at
    2M random rows); its default sort is a vectorised quicksort (40).  So
    sort unstably, then repair the ties: rows of equal value form a run,
    and sorting ``(run number << row_bits) | row`` *by value* — no
    indirection — puts each run's rows in ascending order, which is the
    stable order.  ~60 ns/row including the sorted values every caller
    wants next.
    """
    n = int(values.shape[0])
    if (
        n < CACHE_KERNEL_MIN_ROWS
        or n >= 1 << 31
        or values.dtype.kind not in "iu"
        or np.count_nonzero(values[1:] < values[:-1]) <= PRESORTED_MAX_DESCENTS
    ):
        order = np.argsort(values, kind="stable")
        return order, values[order]
    order = np.argsort(values)
    ordered = values[order]
    run_start = np.empty(n, dtype=bool)
    run_start[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=run_start[1:])
    if run_start.all():
        return order, ordered
    row_bits = (n - 1).bit_length()
    packed = np.cumsum(run_start, dtype=np.int64)
    packed <<= row_bits
    packed |= order
    packed.sort()
    packed &= (1 << row_bits) - 1
    return packed, ordered


def sorted_lookup(
    ordered: np.ndarray, keys: np.ndarray, side: str = "left"
) -> np.ndarray:
    """``np.searchsorted(ordered, keys, side)`` — the one probe of a
    sorted build side.

    Random needles make every binary search miss the cache and mispredict
    its branches (261 ns/row for 2M probes into 466k keys).  Probing in
    *roughly* ascending order fixes both, and roughly is cheap: bucket the
    keys by the top 16 bits of their offset into the build side's value
    range (a stable argsort of ``uint16`` is numpy's linear radix sort),
    search bucket by bucket, scatter the positions back (67 ns/row).  The
    bucket only orders the searches; the positions are ``searchsorted``'s
    own whatever it is.
    """
    n = int(keys.shape[0])
    if (
        n < CACHE_KERNEL_MIN_ROWS
        or ordered.shape[0] == 0
        or keys.dtype != np.int64
        or ordered.dtype != np.int64
    ):
        return np.searchsorted(ordered, keys, side=side)
    low = int(ordered[0])
    shift = max((int(ordered[-1]) - low).bit_length() - 16, 0)
    # Offsets wrap modulo 2^64 for keys below the range; those and keys
    # above it land in the last bucket.
    bucket = keys.view(np.uint64) - np.uint64(low & 0xFFFFFFFFFFFFFFFF)
    bucket >>= np.uint64(shift)
    np.minimum(bucket, np.uint64(0xFFFF), out=bucket)
    visit = np.argsort(bucket.astype(np.uint16), kind="stable")
    positions = np.empty(n, dtype=np.intp)
    positions[visit] = np.searchsorted(ordered, keys[visit], side=side)
    return positions


# ---------------------------------------------------------------------------
# key indexes
# ---------------------------------------------------------------------------


class KeyIndex:
    """A reusable single-column index: five statistics of the key column,
    no array.

    ``n_rows``, ``is_unique`` (``None``: unknown, see
    :func:`build_key_index`), ``is_sorted`` (the column is non-decreasing
    as stored) and the ``min_value`` / ``max_value`` bounds let a join
    route pick its kernel, skip the duplicate-expansion machinery and size
    a direct-address table without touching the data; an index that
    :meth:`fills` its domain spares the join any table at all.  A sorted
    build side is its own sorted order, so the route reads it where it
    lies; every other build side is sorted or addressed by the route
    itself, as it is without an index.

    Only a join's build side reads one (from a stored table's index
    cache); a GROUP BY reads its layout off the key column itself.
    """

    __slots__ = ("n_rows", "is_unique", "is_sorted", "min_value",
                 "max_value")

    def __init__(self, n_rows: int, is_unique: Optional[bool],
                 is_sorted: bool,
                 min_value: Optional[int], max_value: Optional[int]):
        self.n_rows = n_rows
        self.is_unique = is_unique
        self.is_sorted = is_sorted
        self.min_value = min_value
        self.max_value = max_value

    def fills(self, span: int) -> bool:
        """Whether the indexed keys are sorted, unique and exactly ``span``
        many — over a domain of ``span`` keys, all of them, in order, so
        the ``i``-th key of the domain is row ``i``.  O(1)."""
        return self.is_sorted and self.is_unique and self.n_rows == span


def _dense_span_limit(n_rows: int) -> int:
    """Largest key span the direct-address kernels will allocate for."""
    return min(max(DENSE_SPAN_FACTOR * n_rows, DENSE_SPAN_FLOOR), DENSE_SPAN_CAP)


def build_key_index(
    values: np.ndarray, dictionary: Optional[np.ndarray] = None
) -> KeyIndex:
    """Build a :class:`KeyIndex` over a non-null numeric column —
    ``values`` are its codes when ``dictionary`` is given.  Order,
    uniqueness and sortedness of codes are the values' own, because the
    dictionary is strictly increasing; the bounds are values either way.

    Sortedness is checked first.  A sorted column (any GROUP BY output, a
    DISTINCT's leading column) reads its bounds off its ends and its
    uniqueness off one comparison of neighbours.  Otherwise the bounds
    take a ``min`` and a ``max``; dense integer keys then take a
    ``bincount``, and other codes one ``np.sort``.  Uniqueness of any
    other key is left unknown (``None``): no join route reads it — such a
    build side is neither sorted nor dense, so the ``sorted`` route sorts
    it and compares neighbours itself.  Nothing is kept but the five
    numbers."""
    if values.dtype == object:
        raise ExecutionError("key indexes require fixed-width numeric columns")
    n = int(values.shape[0])
    if n == 0:
        return KeyIndex(0, True, True, None, None)
    is_sorted = n < 2 or bool(np.all(values[1:] >= values[:-1]))
    low = high = None
    if values.dtype.kind in "iu":
        low, high = (int(values[0]), int(values[-1])) if is_sorted \
            else (int(values.min()), int(values.max()))
    if is_sorted:
        is_unique = n < 2 or not bool((values[1:] == values[:-1]).any())
    elif low is not None and high - low + 1 <= _dense_span_limit(n):
        counts = np.bincount(values - low if low else values)
        is_unique = int(counts.max()) <= 1
    elif dictionary is not None:
        ordered = np.sort(values)
        is_unique = not bool((ordered[1:] == ordered[:-1]).any())
    else:
        is_unique = None
    if low is not None and dictionary is not None:
        low, high = int(dictionary[low]), int(dictionary[high])
    return KeyIndex(n, is_unique, is_sorted, low, high)


def encode_values(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(values, return_inverse=True)`` without its argsort: the
    sorted distinct values and each row's position among them — the
    dictionary and the codes of an encoded column.

    A span :func:`_dense_span_limit` admits takes a presence mask over the
    span and a running count of it: no sort at all.  Any other int64 span
    of at least :data:`CACHE_KERNEL_MIN_ROWS` rows (below, ``np.unique``'s
    fewer passes are the faster) takes one value sort (``ndarray.sort``, a
    SIMD sort: 5 ms against 21 for ``argsort`` on 466k rows) of
    ``((v - min) >> shift) << row_bits | row`` words, ``shift`` dropping
    just enough low bits for the row number to fit.  Values that differ
    only in the dropped bits share a prefix and come out in row order, not
    value order; the sorted values are checked, and an input where such a
    pair came out of order goes to ``np.unique``.
    """
    n = int(values.shape[0])
    if n == 0 or values.dtype != np.int64:
        return np.unique(values, return_inverse=True)
    low, high = int(values.min()), int(values.max())
    span = high - low + 1
    if span <= _dense_span_limit(n):
        slots = values - low if low else values
        present = np.zeros(span, dtype=bool)
        present[slots] = True
        rank = present.astype(np.int64)  # a cumsum over bools is 3x slower
        np.cumsum(rank, out=rank)
        rank -= 1
        dictionary = np.flatnonzero(present)
        if low:
            dictionary += low
        return dictionary, rank[slots]
    if n < CACHE_KERNEL_MIN_ROWS:
        return np.unique(values, return_inverse=True)
    row_bits = (n - 1).bit_length()
    shift = max((span - 1).bit_length() + row_bits - 64, 0)
    words = values.view(np.uint64) - np.uint64(low & 0xFFFFFFFFFFFFFFFF)
    words >>= np.uint64(shift)
    words <<= np.uint64(row_bits)
    words |= np.arange(n, dtype=np.uint64)
    words.sort()
    words &= np.uint64((1 << row_bits) - 1)
    rows = words.view(np.int64)
    ordered = values[rows]
    if shift and bool((ordered[1:] < ordered[:-1]).any()):
        return np.unique(values, return_inverse=True)
    head = np.empty(n, dtype=bool)
    head[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=head[1:])
    dictionary = ordered[np.flatnonzero(head)]
    rank = ordered  # the sorted values' buffer: one row-length array fewer
    np.copyto(rank, head)
    del head
    np.cumsum(rank, out=rank)
    rank -= 1
    codes = np.empty(n, dtype=np.int64)
    codes[rows] = rank
    return dictionary, codes


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _non_null_rows(columns: list[Column]) -> np.ndarray | None:
    """Row mask selecting rows where no key column is NULL, or None if all."""
    mask = None
    for col in columns:
        if col.mask is not None:
            mask = col.mask.copy() if mask is None else (mask | col.mask)
    if mask is None:
        return None
    return ~mask


#: Packed key words stay below this bound, so one more fold over spans
#: multiplying to less than it cannot overflow int64.
PACKED_BOUND = 1 << 62


def _offsets(arrays: Sequence[np.ndarray]) -> Optional[tuple[list, int]]:
    """Integer arrays as offsets from their joint least value, and their
    joint span, if it is below :data:`PACKED_BOUND`."""
    if any(array.dtype.kind != "i" for array in arrays):
        return None
    present = [array for array in arrays if array.shape[0]]
    low = min(int(array.min()) for array in present)
    span = max(int(array.max()) for array in present) - low + 1
    if span >= PACKED_BOUND:
        return None
    return [array - low if low else array for array in arrays], span


def _ranks(arrays: Sequence[np.ndarray]) -> tuple[list, int]:
    """Each array's values ranked among all the arrays' values — equal
    floats (``-0.0`` and ``0.0``, every NaN) share a rank — and the number
    of ranks."""
    dictionary, codes = encode_values(np.concatenate(arrays))
    cuts = np.cumsum([array.shape[0] for array in arrays[:-1]])
    return np.split(codes, cuts), int(dictionary.shape[0])


def pack_keys(sides: list) -> list[np.ndarray]:
    """One order-preserving int64 word per row of each side for a
    multi-column key: ``sides`` holds each side's NULL-free key columns,
    column ``i`` compared across sides.  Columns fold left to right as
    ``word * span + code``; a code is an integer column's :func:`_offsets`,
    else its :func:`_ranks`, and a fold that would reach
    :data:`PACKED_BOUND` ranks the packed prefix first, then the column if
    it must.  Equal rows, and only those, share a word, and words order as
    their rows do."""
    words, span = None, 1
    for column in zip(*sides):
        codes = _offsets(column)
        if codes is None:
            codes = _ranks(column)
        if span * codes[1] >= PACKED_BOUND:
            words, span = _ranks(words)
            if span * codes[1] >= PACKED_BOUND:
                codes = _ranks(column)
        codes, width = codes
        words = codes if words is None else [
            word * width + code for word, code in zip(words, codes)]
        span *= width
    return words


def _empty_pair() -> tuple[np.ndarray, np.ndarray]:
    empty = np.empty(0, dtype=np.int64)
    return empty, empty.copy()


# ---------------------------------------------------------------------------
# joins
# ---------------------------------------------------------------------------

#: Every route :func:`join_rows` can take, with the kernel-strategy note
#: it reports.
JOIN_ROUTES = {
    "empty": "empty",
    "dense-offset": "offset",
    "dense-unique": "dense",
    "dense-runs": "dense",
    "sorted": "merge",
}


def _valid_keys(
    columns: list[Column], codes: bool = False,
) -> tuple[list, Optional[np.ndarray]]:
    """The key columns' values (``codes``: their codes) at the rows where
    no key column is NULL, and those rows' numbers (``None``: every
    row)."""
    arrays = [col.codes if codes else col.values for col in columns]
    valid = _non_null_rows(columns)
    if valid is None:
        return arrays, None
    rows = np.flatnonzero(valid)
    return [array[rows] for array in arrays], rows


def join_rows(
    left_keys: list[Column],
    right_keys: list[Column],
    right_index: Optional[KeyIndex] = None,
) -> tuple[str, Optional[np.ndarray], np.ndarray]:
    """An inner m:n equi-join, planned and run: ``(route kind, left rows,
    right rows)``, the rows aligned.  Left rows are ``None`` when every
    probe row matched exactly once, in order, and no NULL key was
    filtered out.

    NULL keys are stripped (they never match — SQL semantics), a
    multi-column key is packed into one word per row (:func:`pack_keys`,
    over both sides at once), :func:`_route_keys` picks the route and
    calls its kernel once, and the key positions are mapped back to the
    rows of a side whose NULL keys were filtered out.  Two single-column
    keys over one dictionary object join on their codes, whose domain is
    the dictionary: equal codes are equal values, and no value is read.

    ``right_index`` is an optional precomputed :class:`KeyIndex` over the
    *unfiltered* build-side key column (typically from a stored table's
    index cache); its statistics spare the route a pass over the build
    keys, and a sorted one its build-side sort.  It is ignored whenever
    the build side had NULL rows filtered out, since its row numbering
    would no longer line up.  Only an index that
    :meth:`KeyIndex.fills` its key domain — checked in O(1) — takes the
    ``dense-offset`` route: the right rows are read straight off the probe
    keys.  Without an index (the Spark model keeps none) no join takes it.
    """
    if len(left_keys) != len(right_keys) or not left_keys:
        raise ExecutionError("join requires matching non-empty key lists")
    dictionary = left_keys[0].dictionary
    domain = int(dictionary.shape[0]) if (
        len(left_keys) == 1 and dictionary is not None
        and dictionary is right_keys[0].dictionary) else None
    left, left_rows = _valid_keys(left_keys, domain is not None)
    right, right_rows = _valid_keys(right_keys, domain is not None)
    if right_rows is not None:
        right_index = None
    if left[0].shape[0] == 0 or right[0].shape[0] == 0:
        return ("empty", *_empty_pair())
    lk, rk = (left[0], right[0]) if len(left) == 1 \
        else pack_keys([left, right])
    kind, l_idx, r_idx = _route_keys(lk, rk, right_index, domain)
    if left_rows is not None:
        l_idx = left_rows if l_idx is None else left_rows[l_idx]
    if right_rows is not None:
        r_idx = right_rows[r_idx]
    return kind, l_idx, r_idx


def _route_keys(
    lk: np.ndarray, rk: np.ndarray, right_index: Optional[KeyIndex],
    domain: Optional[int] = None,
) -> tuple[str, Optional[np.ndarray], np.ndarray]:
    """The one join-route decision, over non-empty NULL-free keys, and its
    kernel's ``(kind, left positions, right positions)``.

    Integer keys: a build side whose index :meth:`~KeyIndex.fills` its
    range is addressed by offset, with no table (``dense-offset``: key
    ``k`` is build row ``k - min``); any other dense build-side range gets
    a direct-address table (slots for unique keys, buckets otherwise) —
    O(n), no sort.  The offset route allocates nothing, so the dense-span
    limit does not bound it.  Codes (``domain``: their dictionary's
    length) span ``0 .. domain - 1`` and address it in bounds, whatever
    the dense-span limit says.  Any other key takes the ``sorted`` route:
    one search per row into unique integer keys, a run expansion (two,
    which match NaN to NaN) otherwise.  A build side its index shows
    sorted is searched and expanded where it lies, through no order, in
    both the ``sorted`` route and ``dense-runs``; any other is sorted
    here, its uniqueness one compare of neighbours.
    """
    n_right = int(rk.shape[0])
    ints = lk.dtype.kind == "i" and rk.dtype.kind == "i"
    stored_sorted = right_index is not None and right_index.is_sorted
    codes = domain is not None
    if ints:
        if codes:
            rmin, span = 0, domain
        else:
            if right_index is not None and right_index.min_value is not None:
                rmin, rmax = right_index.min_value, right_index.max_value
            else:
                rmin, rmax = int(rk.min()), int(rk.max())
            span = rmax - rmin + 1
        if right_index is not None and right_index.fills(span):
            return ("dense-offset", *_offset_probe(lk, rmin, span, codes))
        if codes or span <= _dense_span_limit(n_right):
            rel_right = rk - rmin if rmin else rk
            counts = None
            if right_index is None or not right_index.is_unique:
                counts = np.bincount(rel_right, minlength=span)
                if n_right < 2 or int(counts.max()) <= 1:
                    # Unique keys: the counts go before the slot table is
                    # allocated, which then reuses their memory instead
                    # of faulting in fresh pages.
                    counts = None
            if counts is None:
                slots = np.full(span, NO_MATCH, dtype=np.int64)
                slots[rel_right] = np.arange(n_right, dtype=np.int64)
                return ("dense-unique", *_dense_probe(
                    lk, slots, None, None, rmin, span, codes))
            # Duplicate build keys: bucket right rows by key code.
            order = None if stored_sorted else stable_argsort(rel_right)[0]
            starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
            return ("dense-runs", *_dense_probe(
                lk, counts, starts, order, rmin, span, codes))
    if stored_sorted:
        order, ordered, unique = None, rk, right_index.is_unique
    else:
        order, ordered = stable_argsort(rk)
        unique = not bool((ordered[1:] == ordered[:-1]).any())
    return ("sorted", *_sorted_probe(lk, ordered, order,
                                     ints and unique))


def join_indices(
    left_keys: list[Column],
    right_keys: list[Column],
    right_index: Optional[KeyIndex] = None,
    note: Optional[list] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Inner m:n equi-join; returns aligned (left_rows, right_rows) —
    :func:`join_rows` with the identity left rows spelled out.

    ``note``, when given, receives the name of the kernel strategy the
    route settled on (``"dense"``, ``"offset"``, ``"merge"`` ...) —
    the executor records it on the statement's physical plan.
    """
    kind, l_idx, r_idx = join_rows(left_keys, right_keys, right_index)
    if note is not None:
        note.append(JOIN_ROUTES[kind])
    return spelled_out(l_idx, r_idx)


def spelled_out(
    l_idx: Optional[np.ndarray], r_idx: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """A join's row pairs with an identity left map (``None``) written out
    as ``arange`` — what the public join entry points return."""
    if l_idx is None:
        l_idx = np.arange(r_idx.shape[0], dtype=np.int64)
    return l_idx, r_idx


def pad_left_outer(
    l_idx: Optional[np.ndarray], r_idx: np.ndarray, n_left: int
) -> tuple[Optional[np.ndarray], np.ndarray]:
    """Append unmatched left rows (``right == NO_MATCH``) to an inner-join
    result — the shared left-outer step of every join route, so the
    padding order can never diverge between them.  Identity left rows
    (``None``) miss nothing and come back as they are."""
    if l_idx is None:
        return l_idx, r_idx
    matched = np.zeros(n_left, dtype=bool)
    matched[l_idx] = True
    missing = np.flatnonzero(~matched)
    if missing.size == 0:
        return l_idx, r_idx
    left_rows = np.concatenate([l_idx, missing])
    right_rows = np.concatenate(
        [r_idx, np.full(missing.size, NO_MATCH, dtype=np.int64)]
    )
    return left_rows, right_rows


def left_join_indices(
    left_keys: list[Column],
    right_keys: list[Column],
    right_index: Optional[KeyIndex] = None,
    note: Optional[list] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Left outer m:n equi-join.

    Returns (left_rows, right_rows) where unmatched left rows appear exactly
    once with ``right_rows == NO_MATCH``.
    """
    l_idx, r_idx = join_indices(left_keys, right_keys, right_index, note)
    return pad_left_outer(l_idx, r_idx, len(left_keys[0]))


# -- join kernels: each called once, over the whole probe side ---------------


def _offset_probe(
    lk: np.ndarray, rmin: int, span: int, codes: bool = False,
) -> tuple[Optional[np.ndarray], np.ndarray]:
    """Kernel: the probe keys ``lk`` against a build side whose keys are
    ``rmin .. rmin + span - 1``, in row order — key ``k`` is build row
    ``k - rmin``, so no table is built or read.  ``codes`` says ``lk`` are
    codes into a dictionary of ``span`` entries (``rmin`` 0), in bounds by
    construction.  Left rows are ``None`` when every probe key is in
    bounds; the right rows are then a read-only view of ``lk`` when
    ``rmin`` is 0, which can be a stored column's array."""
    rmax = rmin + (span - 1)
    if codes or (int(lk.min()) >= rmin and int(lk.max()) <= rmax):
        if rmin:
            return None, lk - rmin
        rows = lk.view()
        rows.flags.writeable = False
        return None, rows
    # Bounds-check on the original values: lk - rmin could wrap around
    # int64 for extreme key ranges.
    l_idx = np.flatnonzero((lk >= rmin) & (lk <= rmax))
    return l_idx, lk[l_idx] - rmin


def _dense_probe(
    lk: np.ndarray, table: np.ndarray, starts: Optional[np.ndarray],
    order: Optional[np.ndarray], rmin: int, span: int, codes: bool = False,
) -> tuple[Optional[np.ndarray], np.ndarray]:
    """Kernel: the probe keys ``lk`` against a dense direct-address table
    — ``table`` maps a key code to its build row (unique keys, ``starts``
    is ``None``) or to its bucket's size, the bucket being
    ``order[starts[code]:][:size]``.  ``codes`` says ``lk`` are codes into
    a dictionary of ``span`` entries (``rmin`` 0), in bounds by
    construction.  Left rows are ``None`` when every probe row found its
    one build row."""
    if codes or (lk.shape[0] and int(lk.min()) >= rmin
                 and int(lk.max()) <= rmin + (span - 1)):
        # Every key addresses the table: two reductions (none for codes)
        # save the five passes that guard the gather.
        in_bounds = None
        l_rel = lk - rmin if rmin else lk
    else:
        # Bounds-check on the original values: computing lk - rmin first
        # could wrap around int64 for extreme key ranges and alias into
        # the table.
        in_bounds = (lk >= rmin) & (lk <= rmin + (span - 1))
        l_rel = np.where(in_bounds, lk - rmin, 0)
    if starts is None:
        candidates = table[l_rel]
        if in_bounds is None:
            # NO_MATCH is the least entry: one reduction proves every
            # probe row matched, and only a miss builds the match mask.
            if not candidates.shape[0] or int(candidates.min()) != NO_MATCH:
                return None, candidates
            match = candidates != NO_MATCH
        else:
            match = (candidates != NO_MATCH) & in_bounds
            if match.all():
                return None, candidates
        l_idx = np.flatnonzero(match)
        return l_idx, candidates[l_idx]
    cnt = table[l_rel]
    if in_bounds is not None:
        cnt = np.where(in_bounds, cnt, 0)
    return _expand_runs(starts[l_rel], cnt, order)


def _sorted_probe(
    lk: np.ndarray, ordered: np.ndarray, order: Optional[np.ndarray],
    unique: bool,
) -> tuple[Optional[np.ndarray], np.ndarray]:
    """Kernel: the probe keys ``lk`` against a sorted build side
    (``order`` is ``None`` when it is stored sorted)."""
    if unique:
        return probe_unique(lk, ordered, order)
    lo = sorted_lookup(ordered, lk, side="left")
    hi = sorted_lookup(ordered, lk, side="right")
    return _expand_runs(lo, hi - lo, order)


def _expand_runs(
    first: np.ndarray, counts: np.ndarray, order: Optional[np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Row pairs of a probe whose row ``i`` matches the ``counts[i]``
    consecutive build positions from ``first[i]``, mapped through
    ``order`` — the duplicate-key expansion of every join kernel.  Its
    left rows are always an array, never the identity ``None``."""
    total = int(counts.sum())
    if total == 0:
        return _empty_pair()
    l_idx = np.repeat(np.arange(counts.shape[0]), counts)
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
    within = np.arange(total) - np.repeat(offsets, counts)
    positions = np.repeat(first, counts) + within
    return l_idx, positions if order is None else order[positions]


def probe_unique(
    lk: np.ndarray, ordered: np.ndarray, order: Optional[np.ndarray],
) -> tuple[Optional[np.ndarray], np.ndarray]:
    """Matches of probe rows ``lk`` in a sorted array of unique keys whose
    position ``i`` is build row ``order[i]`` (``None``: stored sorted,
    positions are rows).  Left rows are ``None`` when every probe row
    matched."""
    pos = sorted_lookup(ordered, lk)
    np.minimum(pos, ordered.shape[0] - 1, out=pos)
    match = ordered[pos] == lk
    if match.all():
        return None, pos if order is None else order[pos]
    l_idx = np.flatnonzero(match)
    hits = pos[l_idx]
    return l_idx, hits if order is None else order[hits]


# ---------------------------------------------------------------------------
# grouping and distinct
# ---------------------------------------------------------------------------


def group_rows(key_columns: list[Column]) -> tuple[np.ndarray, np.ndarray]:
    """Group rows by key equality.

    Returns ``(order, starts)``: ``order`` sorts rows so equal keys are
    adjacent; ``starts`` indexes into ``order`` at each group's first row.
    NULL keys form their own group (SQL GROUP BY treats NULLs as equal).
    """
    n = len(key_columns[0]) if key_columns else 0
    if n == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    if all(col.mask is None for col in key_columns):
        if len(key_columns) == 1:
            # Codes group exactly as their values do.
            order, sorted_keys = stable_argsort(key_columns[0].storage)
            return order, _boundaries(sorted_keys)
        if all(col.storage.dtype.kind == "i" for col in key_columns):
            # NULL-free integer keys (codes order as their values): one
            # packed word per row, whose stable order is the lexicographic
            # one.  Other keys group in sorted_group_rows, whose ``!=``
            # makes every NaN a group.
            (words,) = pack_keys([[col.storage for col in key_columns]])
            order, sorted_words = stable_argsort(words)
            return order, _boundaries(sorted_words)
    return sorted_group_rows(key_columns)


def run_starts(key: Column) -> Optional[np.ndarray]:
    """The group starts of one key column whose rows already lie group by
    group, else ``None``: a non-empty NULL-free integer column — codes or
    values — that one ``>=`` pass finds non-decreasing.  The starts are
    one ``!=`` pass; the stable sort would be the identity, so the rows
    are reduced where they lie, with no sort and no gather.  Each round's
    ``reps`` GROUP BY from round 2 on reads such a key: the contract's
    DISTINCT emits it in key order."""
    keys = key.storage
    if key.mask is not None or keys.dtype.kind != "i" or not keys.shape[0]:
        return None
    if not np.greater_equal(keys[1:], keys[:-1]).all():
        return None
    return _boundaries(keys)


class DirectGroups:
    """Rows grouped by direct addressing instead of a sort: row ``i``
    belongs to slot ``slots[i]`` of ``span``; the groups are the slots
    that occur, ``present``, ascending — the key order :func:`group_rows`
    yields — with ``counts`` rows each, and group ``g``'s key is
    ``low + present[g]``."""

    __slots__ = ("slots", "span", "low", "present", "counts")

    def __init__(self, keys: np.ndarray, low: int, span: int):
        self.slots = keys - low if low else keys
        self.span = span
        self.low = low
        per_slot = np.bincount(self.slots, minlength=span)
        self.present = np.flatnonzero(per_slot)
        self.counts = per_slot[self.present]


def direct_group_rows(key: Column) -> Optional[DirectGroups]:
    """Group one NULL-free integer key column without sorting it, when its
    keys are dense (a span :func:`_dense_span_limit` admits — vertex ids,
    or the codes of an encoded column, whose span is its dictionary's
    length); ``None`` otherwise.  ``bincount`` is 3 ns/row and a
    ``ufunc.at`` reduction 4–6, against 60 for :func:`stable_argsort`
    plus a gather per aggregate: what round 1 of a contraction, whose
    codes nothing has sorted yet, spends its GROUP BY on.  A key that
    arrives sorted goes to :func:`run_starts` instead: ``ufunc.at``
    serialises on the repeated slots of a sorted key (2x slower than
    ``reduceat`` over its runs at 200 rows a group)."""
    n = len(key)
    if n == 0 or key.mask is not None or key.storage.dtype.kind != "i":
        return None
    keys = key.storage
    if key.codes is not None:
        low, high = 0, int(key.dictionary.shape[0]) - 1
    else:
        low, high = int(keys.min()), int(keys.max())
    if high - low + 1 > _dense_span_limit(n):
        return None
    return DirectGroups(keys, low, high - low + 1)


#: Aggregate kinds the reducer computes (``count*`` takes no argument).
AGGREGATE_KINDS = frozenset({"count*", "count", "min", "max", "sum", "avg"})


def _reduce_slice(
    kind: str,
    argument: Optional[Column],
    order: Optional[np.ndarray],
    starts: Optional[np.ndarray],
    row_counts: np.ndarray,
    direct: Optional[DirectGroups] = None,
) -> Column:
    """The one per-group reducer every GROUP BY calls: aggregate ``kind``
    of ``argument`` as a column with one row per group, of the
    aggregate's SQL type.  ``order`` (None = the rows already lie group by
    group) sorts the argument's rows so that group ``g`` is positions
    ``starts[g]`` up to ``starts[g + 1]``, of which there must be at least
    one.  With ``direct`` the groups are addressed, not laid out: ``order``
    and ``starts`` are unused and the kinds are count, min and max.  A
    NULL-free argument skips the NULL bookkeeping: every row counts,
    nothing is padded and no group comes out empty (NULL)."""
    if kind not in AGGREGATE_KINDS:
        raise ExecutionError(f"unsupported aggregate kind {kind!r}")
    if kind == "count*":
        return Column(row_counts.astype(np.int64, copy=False), INT64)
    values, mask, sql_type = argument.values, argument.mask, argument.sql_type
    if direct is not None:
        reduced, empty = _reduce_direct(kind, values, mask, row_counts, direct)
        return Column(reduced, INT64 if kind == "count" else sql_type, empty)
    if mask is None:
        sorted_mask = None
        valid_counts = row_counts.astype(np.int64, copy=False)
    else:
        sorted_mask = mask if order is None else mask[order]
        valid_counts = np.add.reduceat((~sorted_mask).astype(np.int64),
                                       starts)
    if kind == "count":
        return Column(valid_counts, INT64)
    ordered = values if order is None else values[order]
    dtype = values.dtype
    empty = None if sorted_mask is None else valid_counts == 0
    if kind in ("min", "max"):
        padded = ordered if sorted_mask is None else np.where(
            sorted_mask, _sentinel(kind, dtype), ordered)
        reducer = np.minimum if kind == "min" else np.maximum
        reduced = reducer.reduceat(padded, starts)
        return Column(reduced.astype(dtype, copy=False), sql_type, empty)
    # sum / avg: float64 accumulation in reference row order.
    padded = ordered if sorted_mask is None else np.where(
        sorted_mask, 0, ordered)
    sums = np.add.reduceat(padded.astype(np.float64), starts)
    if kind == "sum":
        if sql_type == INT64:
            return Column(sums.astype(np.int64), INT64, empty)
        return Column(sums, FLOAT64, empty)
    with np.errstate(invalid="ignore", divide="ignore"):
        averages = sums / valid_counts
    return Column(averages, FLOAT64, empty)


def _sentinel(kind: str, dtype: np.dtype):
    """The value no argument of a min / max beats — what a NULL row or an
    untouched slot holds."""
    low = kind == "max"
    if dtype.kind == "b":
        return not low
    if dtype.kind == "i":
        return np.iinfo(dtype).min if low else np.iinfo(dtype).max
    return -np.inf if low else np.inf


def _reduce_direct(
    kind: str,
    values: np.ndarray,
    mask: Optional[np.ndarray],
    row_counts: np.ndarray,
    direct: DirectGroups,
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """:func:`_reduce_slice` over direct-addressed groups — ``(values,
    empty groups or None)`` from one scatter reduction into a table of
    ``direct.span`` slots, read back at the slots that occur."""
    slots = direct.slots
    if mask is None:
        valid_counts = row_counts.astype(np.int64, copy=False)
    else:
        valid_counts = np.bincount(
            slots[~mask], minlength=direct.span)[direct.present]
    if kind == "count":
        return valid_counts, None
    if kind not in ("min", "max"):
        raise ExecutionError(f"{kind} has no direct-address reduction")
    sentinel = _sentinel(kind, values.dtype)
    table = np.full(direct.span, sentinel, dtype=values.dtype)
    if mask is not None:
        values = np.where(mask, sentinel, values)
    reducer = np.minimum if kind == "min" else np.maximum
    with np.errstate(invalid="ignore"):  # NaN arguments propagate, quietly
        reducer.at(table, slots, values)
    return table[direct.present], valid_counts == 0


def sorted_group_rows(key_columns: list[Column]) -> tuple[np.ndarray, np.ndarray]:
    """The seed lexsort grouping: reference implementation and NULL/text
    fallback."""
    n = len(key_columns[0]) if key_columns else 0
    if n == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    masks = [col.null_mask() for col in key_columns]
    # A NULL row's value is whatever its storage holds (a null-extended
    # gather leaves another row's): sorting on it would part NULL rows
    # that later keys make equal, so every NULL sorts as zero, or as the
    # empty string in text.
    values = [col.values if col.mask is None
              else np.where(col.mask, "" if col.values.dtype == object
                            else col.values.dtype.type(0), col.values)
              for col in key_columns]
    sort_keys: list[np.ndarray] = []
    for mask, column_values in zip(masks, values):
        sort_keys.append(mask)
        sort_keys.append(column_values)
    # np.lexsort sorts by the *last* key first.
    order = np.lexsort(tuple(reversed(sort_keys)))
    change = np.zeros(n, dtype=bool)
    change[0] = True
    for mask, column_values in zip(masks, values):
        values_sorted = column_values[order]
        mask_sorted = mask[order]
        differs = values_sorted[1:] != values_sorted[:-1]
        differs |= mask_sorted[1:] != mask_sorted[:-1]
        # Two NULLs compare equal regardless of their underlying values.
        both_null = mask_sorted[1:] & mask_sorted[:-1]
        differs &= ~both_null
        change[1:] |= differs
    starts = np.flatnonzero(change)
    return order, starts


def _boundaries(ordered: np.ndarray) -> np.ndarray:
    """Group-start positions within an already-sorted key array."""
    n = ordered.shape[0]
    change = np.zeros(n, dtype=bool)
    change[0] = True
    change[1:] = ordered[1:] != ordered[:-1]
    return np.flatnonzero(change)


class _PackedKey(NamedTuple):
    """One column of a packed DISTINCT: an offset is an encoded
    ``column``'s code, a plain one's value less ``base``, and offsets fit
    ``width`` bits.  ``column`` is also the form the distinct rows come
    out in."""

    column: Column
    base: int
    width: int


#: Packed words at most this wide sort as ``uint32``: 2.2-2.4x faster than
#: int64 (0.9 against 2.0 ms for 200k words, 10.8 against 24.1 ms for 2M).
NARROW_WORD_BITS = 32

#: Which ``uint32`` of a native int64 holds its low half.
_LOW_HALF = 0 if sys.byteorder == "little" else 1

#: A selection keeping at least this share of the rows is a boolean mask,
#: one below it ascending positions: one compress allocates no positions
#: array and no gather beside the words, but below ~9 in 10 kept it is
#: slower — 2x at 3/4 kept (13.5 against 6.1 ms for 1.7M words), 3.4x at
#: half.  It serves each block of a fused join→DISTINCT (the executor's
#: ``_blocked_distinct``) and the dedup of the sorted words alike.
DISTINCT_MASK_MIN_KEPT = 0.75


def kept_rows(keep: np.ndarray) -> Optional[np.ndarray]:
    """The rows ``keep`` holds on: ``None`` when that is every row, the
    mask itself when it keeps at least :data:`DISTINCT_MASK_MIN_KEPT` of
    them, else their ascending positions."""
    kept = int(np.count_nonzero(keep))
    if kept == keep.shape[0]:
        return None
    if kept >= DISTINCT_MASK_MIN_KEPT * keep.shape[0]:
        return keep
    return np.flatnonzero(keep)


def distinct_rows(columns: list[Column]) -> list[Column]:
    """DISTINCT: the distinct rows themselves, in ascending key order, as
    columns in the input's forms.

    NULL-free int64 keys whose offsets fit one word are packed and sorted
    (:func:`packed_distinct`, every row one block); any other key is
    grouped (:func:`_grouped_distinct`).
    """
    keys = packed_keys(columns)
    if keys is None:
        return _grouped_distinct(columns)
    return packed_distinct(keys, len(columns[0]), [(columns, None)])[0]


def packed_keys(columns: list[Column]) -> Optional[list[_PackedKey]]:
    """Each column's :class:`_PackedKey` — an encoded column's offset is
    its code, a plain column's its value less its least — or ``None``
    when a column is not NULL-free int64 or the offsets need more than 63
    bits.  A plain column's bounds are every row's, so the keys pack any
    rows drawn from ``columns``: a fused join→DISTINCT hands the columns
    its blocks gather from."""
    if not columns:
        return None
    keys = []
    for col in columns:
        if col.mask is not None or col.storage.dtype != np.int64:
            return None
        if col.codes is not None:
            width = (int(col.dictionary.shape[0]) - 1).bit_length()
            keys.append(_PackedKey(col, 0, width))
            continue
        values = col.values
        low, high = (int(values.min()), int(values.max())) \
            if values.shape[0] else (0, 0)
        keys.append(_PackedKey(col, low, (high - low).bit_length()))
    if sum(key.width for key in keys) > 63:
        return None
    return keys


def packed_distinct(
    keys: list[_PackedKey], n_rows: int,
    blocks: Iterable[tuple[list[Column], Optional[np.ndarray]]],
) -> tuple[list[Column], int]:
    """DISTINCT by one value sort of packed words, over the rows
    ``blocks`` selects, at most ``n_rows``: each block is its key columns
    (in the forms of ``keys``' columns) and the rows to keep of them
    (:func:`kept_rows`' form).  Returns the distinct rows and the kept
    count.

    The kept rows' words — ``uint32`` when the offsets fit
    :data:`NARROW_WORD_BITS` together, else int64 — are packed block by
    block into one buffer at a cursor (:func:`_pack_rows`), and the kept
    prefix is sorted where it lies (shrinking the buffer by
    ``ndarray.resize`` fragments the heap: a warm database's peak RSS
    grew 0.7 MB more over 1000 runs of G(1k, 2k)).  Sorting brings equal
    rows together *and* the distinct ones into key order, as offsets and
    codes order as their values do.  The first word of each run
    survives, selected as :func:`kept_rows` says; the survivors are
    widened to int64 once — copied if still the buffer's prefix, so no
    output holds the buffer — and unpacked by shift and mask
    (:func:`_unpack`): nothing is hashed and no row is gathered.  The
    result's leading column comes out sorted."""
    narrow = sum(key.width for key in keys) <= NARROW_WORD_BITS
    words = np.empty(n_rows, dtype=np.uint32 if narrow else np.int64)
    cursor = 0
    for block in blocks:
        cursor = _pack_rows(keys, *block, words, cursor)
        del block  # before the next block is gathered
    words = words[:cursor]
    words.sort()
    head = np.empty(cursor, dtype=bool)
    head[:1] = True
    np.not_equal(words[1:], words[:-1], out=head[1:])
    survivors = kept_rows(head)
    del head
    if survivors is not None:
        words = words[survivors]
    del survivors
    # No view of the buffer outlives the statement.
    words = words.astype(np.int64, copy=words.base is not None)
    return _unpack(keys, words), cursor


def _pack_rows(keys: list[_PackedKey], columns: list[Column],
               rows: Optional[np.ndarray], words: np.ndarray,
               cursor: int) -> int:
    """Pack the words of ``columns``' rows that ``rows`` keeps into
    ``words`` from ``cursor`` on, first column in the high bits; the
    cursor after them.  Positions (and ``None``: every row) gather each
    column's offsets straight into the words; a mask packs every row's
    word and compresses them into the words once."""
    mask = rows if rows is not None and rows.dtype == np.bool_ else None
    positions = None if mask is not None else rows
    n = len(columns[0]) if rows is None else \
        rows.shape[0] if mask is None else int(np.count_nonzero(mask))
    out = words[cursor:cursor + n]
    packed = out if mask is None else np.empty(mask.shape[0], words.dtype)
    narrow = words.dtype == np.uint32
    for i, (key, col) in enumerate(zip(keys, columns)):
        offsets = _offsets_at(col, positions, narrow)
        if i == 0:
            np.subtract(offsets, key.base, out=packed, casting="unsafe")
            continue
        packed <<= key.width
        np.bitwise_or(packed, offsets - key.base if key.base else offsets,
                      out=packed, casting="unsafe")
    if mask is not None:
        np.compress(mask, packed, out=out)
    return cursor + n


def _unpack(keys: list[_PackedKey], words: np.ndarray) -> list[Column]:
    """The columns of the distinct rows whose int64 ``words`` these are,
    in key order, each in its key's form (``words`` is consumed)."""
    distinct = []
    for key in keys[:0:-1]:
        distinct.append(_unpacked(key, words & ((1 << key.width) - 1)))
        words >>= key.width
    distinct.append(_unpacked(keys[0], words))
    return distinct[::-1]


def _offsets_at(column: Column, positions: Optional[np.ndarray],
                narrow: bool) -> np.ndarray:
    """A packed column's codes or values at ``positions`` (``None``:
    every row) — codes through their low ``uint32`` halves when
    ``narrow``, so no int64 copy of them is made."""
    if column.codes is None:
        array = column.values
    else:
        array = column.codes
        if narrow:
            array = np.ascontiguousarray(array).view(np.uint32)[_LOW_HALF::2]
    return array if positions is None else array[positions]


def _unpacked(key: _PackedKey, offsets: np.ndarray) -> Column:
    """The column of a packed key's distinct ``offsets``, in its form."""
    if key.base:
        offsets += key.base
    return key.column.with_storage(offsets)


def _grouped_distinct(columns: list[Column]) -> list[Column]:
    """DISTINCT of every other key — NULLs, floats, text, offsets wider
    than 63 bits together: the first row of each :func:`group_rows` group,
    which come in key order (NULLs last, each NaN a group of its own)."""
    order, starts = group_rows(columns)
    keep = order[starts]
    return [col.take(keep) for col in columns]
