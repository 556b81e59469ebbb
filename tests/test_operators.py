"""Property tests for the vectorised relational operator kernels.

The hash/dictionary kernels are *plan-stable*: whatever path the dispatch
picks (dense direct-address, cached sorted index, sort-merge fallback),
the returned index arrays must be identical — element for element — to the
sort-merge reference.  The ``*_agrees_with_reference`` tests pin that down
over randomized inputs covering dense and sparse key ranges, duplicates,
NULLs, empties, and multi-column/text fallback."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.sqlengine import operators
from repro.sqlengine.operators import (
    CACHE_KERNEL_MIN_ROWS,
    NO_MATCH,
    build_key_index,
    distinct_rows,
    group_rows,
    join_indices,
    kept_rows,
    left_join_indices,
    packed_distinct,
    packed_keys,
    run_starts,
    sorted_group_rows,
    sorted_lookup,
    stable_argsort,
)
from repro.sqlengine.types import Column

from .distinct_reference import (record_branches, reference_rows,
                                 row_tokens)
from .join_reference import merge_join_indices

small_ints = st.integers(min_value=0, max_value=8)
key_lists = st.lists(small_ints, min_size=0, max_size=30)


def int_column(values, mask_positions=()):
    values = np.asarray(list(values), dtype=np.int64)
    mask = None
    if mask_positions:
        mask = np.zeros(values.shape[0], dtype=bool)
        mask[list(mask_positions)] = True
    return Column(values, "int64", mask)


def brute_force_join(left, right):
    return sorted(
        (i, j)
        for i, a in enumerate(left)
        for j, b in enumerate(right)
        if a == b
    )


@given(key_lists, key_lists)
def test_join_matches_brute_force(left, right):
    l_idx, r_idx = join_indices([int_column(left)], [int_column(right)])
    assert sorted(zip(l_idx.tolist(), r_idx.tolist())) == brute_force_join(left, right)


@given(key_lists, key_lists)
def test_left_join_covers_every_left_row_exactly_right(left, right):
    l_idx, r_idx = left_join_indices([int_column(left)], [int_column(right)])
    right_set = set(right)
    expected_rows = sum(
        max(1, right.count(a)) if True else 0 for a in left
    )
    # Matched rows multiply, unmatched appear once with NO_MATCH.
    expected = sum(right.count(a) if a in right_set else 1 for a in left)
    assert l_idx.shape[0] == expected
    unmatched = {i for i, a in enumerate(left) if a not in right_set}
    got_unmatched = {int(l) for l, r in zip(l_idx, r_idx) if r == NO_MATCH}
    assert got_unmatched == unmatched


def test_join_empty_sides():
    empty = int_column([])
    filled = int_column([1, 2, 3])
    for left, right in [(empty, filled), (filled, empty), (empty, empty)]:
        l_idx, r_idx = join_indices([left], [right])
        assert l_idx.shape[0] == 0 and r_idx.shape[0] == 0


def test_null_keys_never_match():
    left = int_column([1, 2, 3], mask_positions=[1])
    right = int_column([2, 3], mask_positions=[0])
    l_idx, r_idx = join_indices([left], [right])
    assert list(zip(l_idx.tolist(), r_idx.tolist())) == [(2, 1)]


def test_null_left_keys_survive_left_join():
    left = int_column([1, 2], mask_positions=[0])
    right = int_column([1, 2])
    l_idx, r_idx = left_join_indices([left], [right])
    pairs = dict(zip(l_idx.tolist(), r_idx.tolist()))
    assert pairs[0] == NO_MATCH
    assert pairs[1] == 1


def test_multi_key_join():
    left_a = int_column([1, 1, 2])
    left_b = int_column([1, 2, 1])
    right_a = int_column([1, 2])
    right_b = int_column([2, 1])
    l_idx, r_idx = join_indices([left_a, left_b], [right_a, right_b])
    assert sorted(zip(l_idx.tolist(), r_idx.tolist())) == [(1, 0), (2, 1)]


def test_many_to_many_join_multiplicity():
    left = int_column([7, 7])
    right = int_column([7, 7, 7])
    l_idx, r_idx = join_indices([left], [right])
    assert l_idx.shape[0] == 6


@given(key_lists)
def test_group_rows_partitions_input(keys):
    column = int_column(keys)
    order, starts = group_rows([column])
    assert sorted(order.tolist()) == list(range(len(keys)))
    # Every group is a run of equal keys.
    values = column.values[order]
    boundaries = set(starts.tolist())
    for i in range(1, len(keys)):
        if values[i] != values[i - 1]:
            assert i in boundaries


def test_group_rows_null_forms_single_group():
    column = int_column([1, 5, 1], mask_positions=[1])
    order, starts = group_rows([column])
    assert starts.shape[0] == 2  # {1, 1} and {NULL}


def test_group_rows_two_nulls_group_together():
    column = int_column([7, 9], mask_positions=[0, 1])
    _, starts = group_rows([column])
    assert starts.shape[0] == 1


def test_group_rows_empty():
    order, starts = group_rows([int_column([])])
    assert order.shape[0] == 0 and starts.shape[0] == 0


def distinct_lists(columns) -> list[list]:
    return [col.to_list() for col in distinct_rows(columns)]


@given(key_lists)
def test_distinct_matches_python_set(keys):
    assert distinct_lists([int_column(keys)]) == [sorted(set(keys))]


def test_distinct_multi_column():
    a = int_column([1, 1, 2, 1])
    b = int_column([1, 2, 1, 1])
    assert distinct_lists([a, b]) == [[1, 1, 2], [1, 2, 1]]


def test_distinct_treats_nulls_as_equal():
    a = int_column([5, 5, 5], mask_positions=[0, 2])
    assert distinct_lists([a]) == [[5, None]]  # one 5 row, one NULL row


def test_null_keys_group_together_whatever_their_storage_holds():
    """A null-extended gather leaves other rows' values under the mask:
    (NULL, -1) twice is one key, even with (NULL, 2) stored between."""
    a = int_column([0, 0, 1], mask_positions=[0, 1, 2])
    b = int_column([-1, 2, -1])
    assert distinct_lists([a, b]) == [[None, None], [-1, 2]]
    _, starts = group_rows([a, b])
    assert starts.shape[0] == 2


# ---------------------------------------------------------------------------
# hash kernels vs. the sort-merge reference
# ---------------------------------------------------------------------------

#: Key regimes the dispatch must handle: dense small ranges (vertex IDs),
#: sparse 64-bit values (randomised representatives), and negatives.
dense_keys = st.lists(st.integers(min_value=-3, max_value=40), max_size=60)
sparse_keys = st.lists(
    st.integers(min_value=-(2 ** 62), max_value=2 ** 62), max_size=60
)
any_keys = st.one_of(dense_keys, sparse_keys)


def assert_same_pairs(got, expected):
    """Exact equality including order — the kernels must be plan-stable."""
    assert np.array_equal(got[0], expected[0])
    assert np.array_equal(got[1], expected[1])


@given(any_keys, any_keys)
def test_hash_join_agrees_with_reference(left, right):
    lcol, rcol = int_column(left), int_column(right)
    expected = merge_join_indices([lcol], [rcol])
    assert_same_pairs(join_indices([lcol], [rcol]), expected)
    # And with a pre-built build-side index.
    r_index = build_key_index(rcol.values)
    assert_same_pairs(join_indices([lcol], [rcol], right_index=r_index), expected)


@given(any_keys, any_keys)
def test_hash_left_join_agrees_with_reference(left, right):
    lcol, rcol = int_column(left), int_column(right)
    r_index = build_key_index(rcol.values)
    expected = left_join_indices([lcol], [rcol])
    got = left_join_indices([lcol], [rcol], right_index=r_index)
    assert_same_pairs(got, expected)


@given(dense_keys, dense_keys, st.data())
def test_hash_join_with_nulls_agrees_with_reference(left, right, data):
    left_nulls = data.draw(
        st.sets(st.integers(min_value=0, max_value=max(len(left) - 1, 0)))
        if left else st.just(set())
    )
    right_nulls = data.draw(
        st.sets(st.integers(min_value=0, max_value=max(len(right) - 1, 0)))
        if right else st.just(set())
    )
    lcol = int_column(left, mask_positions=sorted(left_nulls))
    rcol = int_column(right, mask_positions=sorted(right_nulls))
    expected = merge_join_indices([lcol], [rcol])
    assert_same_pairs(join_indices([lcol], [rcol]), expected)


#: A unique build side and probe keys drawn from it, so every probe row
#: matches exactly once — the shape of every join of the contraction loop.
unique_builds = st.one_of(
    st.lists(st.integers(min_value=-3, max_value=40), min_size=1,
             max_size=40, unique=True),
    st.lists(st.integers(min_value=-(2 ** 62), max_value=2 ** 62),
             min_size=1, max_size=40, unique=True),
)


@given(unique_builds, st.data())
def test_every_row_matching_join_has_identity_left_rows(right, data):
    """Every probe row finds its one build row: a route that knows its
    build keys unique (a direct-address table, a sorted index, or an
    index showing them fill their range, which needs no table) returns
    the identity (``None``) for left rows — the no-index sparse route too,
    whose one compare of sorted neighbours finds them unique — and the
    public entry points spell it out as the reference's ``arange``.  Stored in key order, a build
    side of consecutive keys takes the tableless route."""
    if data.draw(st.booleans()):
        right = sorted(right)
    fills = right == list(range(right[0], right[0] + len(right)))
    left = data.draw(st.lists(st.sampled_from(right), max_size=60))
    lcol, rcol = int_column(left), int_column(right)
    expected = merge_join_indices([lcol], [rcol])
    for r_index in (None, build_key_index(rcol.values)):
        if left:
            kind, l_idx, r_idx = operators.join_rows([lcol], [rcol],
                                                     right_index=r_index)
            assert l_idx is None
            assert (kind == "dense-offset") == \
                (fills and r_index is not None)
            assert np.array_equal(r_idx, expected[1])
        got = join_indices([lcol], [rcol], right_index=r_index)
        assert got[0].dtype == np.int64
        assert_same_pairs(got, expected)
        assert_same_pairs(
            left_join_indices([lcol], [rcol], right_index=r_index), expected)


@given(unique_builds, st.data())
def test_left_join_matching_only_some_rows_agrees_with_reference(right, data):
    """One probe key outside the build side makes the left rows an array
    again, and the LEFT JOIN pads exactly that row."""
    left = data.draw(st.lists(st.sampled_from(right), max_size=40))
    at = data.draw(st.integers(min_value=0, max_value=len(left)))
    left.insert(at, max(right) + 1)
    lcol, rcol = int_column(left), int_column(right)
    assert operators.join_rows([lcol], [rcol])[1] is not None
    assert_same_pairs(join_indices([lcol], [rcol]),
                      merge_join_indices([lcol], [rcol]))
    l_idx, r_idx = left_join_indices([lcol], [rcol])
    assert l_idx.tolist() == [i for i in range(len(left)) if i != at] + [at]
    assert r_idx[-1] == NO_MATCH and (r_idx[:-1] != NO_MATCH).all()


def test_identity_left_rows_survive_null_key_filtering():
    """A NULL probe key is filtered before the kernel, which then matches
    every remaining row: the identity is over the filtered positions, so
    the join's left rows are the surviving row numbers."""
    lcol = int_column([3, 1, 2, 1], mask_positions=[1])
    rcol = int_column([1, 2, 3])
    _, l_idx, r_idx = operators.join_rows([lcol], [rcol])
    assert l_idx.tolist() == [0, 2, 3] and r_idx.tolist() == [2, 1, 0]
    l_idx, r_idx = left_join_indices([lcol], [rcol])
    assert l_idx.tolist() == [0, 2, 3, 1]
    assert r_idx.tolist() == [2, 1, 0, NO_MATCH]


def test_pad_left_outer_passes_identity_left_rows_through():
    r_idx = np.array([2, 0, 1])
    l_out, r_out = operators.pad_left_outer(None, r_idx, 3)
    assert l_out is None and r_out is r_idx


def test_join_ignores_index_when_nulls_were_filtered():
    # The index describes unfiltered row positions; the kernel must drop it
    # once NULL rows are removed rather than produce misaligned matches.
    rcol = int_column([5, 6, 7], mask_positions=[0])
    stale_index = build_key_index(rcol.values)  # built over all three rows
    lcol = int_column([5, 6, 7])
    l_idx, r_idx = join_indices([lcol], [rcol], right_index=stale_index)
    assert sorted(zip(l_idx.tolist(), r_idx.tolist())) == [(1, 1), (2, 2)]


@given(any_keys)
def test_distinct_agrees_with_reference(keys):
    column = int_column(keys)
    assert row_tokens(distinct_rows([column])) == reference_rows([column])


def test_distinct_text_fallback():
    col = Column(np.array(["b", "a", "b", "c", "a"], dtype=object), "text")
    assert distinct_lists([col]) == [["a", "b", "c"]]


@given(any_keys, dense_keys)
def test_multi_column_distinct_agrees_with_reference(a_keys, b_keys):
    n = min(len(a_keys), len(b_keys))
    a, b = int_column(a_keys[:n]), int_column(b_keys[:n])
    assert row_tokens(distinct_rows([a, b])) == reference_rows([a, b])


@given(dense_keys, dense_keys, dense_keys)
def test_three_column_distinct_agrees_with_reference(a_keys, b_keys, c_keys):
    n = min(len(a_keys), len(b_keys), len(c_keys))
    columns = [int_column(k[:n]) for k in (a_keys, b_keys, c_keys)]
    assert row_tokens(distinct_rows(columns)) == reference_rows(columns)


def test_distinct_duplicate_heavy_and_negative_keys():
    rng = np.random.default_rng(7)
    base = rng.integers(-(2 ** 62), 2 ** 62, 50)
    a = int_column(base[rng.integers(0, 50, 5000)])
    b = int_column(base[rng.integers(0, 50, 5000)])
    assert row_tokens(distinct_rows([a, b])) == reference_rows([a, b])


@given(any_keys)
def test_group_rows_agrees_with_reference(keys):
    for values in (keys, sorted(keys)):
        column = int_column(values)
        expected = sorted_group_rows([column])
        got = group_rows([column])
        assert np.array_equal(got[0], expected[0])
        assert np.array_equal(got[1], expected[1])
        # A key that arrives sorted is its own grouping order: its group
        # starts are the reference's, and its rows need no gather.
        starts = run_starts(column)
        if len(values) and values == sorted(values):
            assert np.array_equal(expected[0], np.arange(len(values)))
            assert np.array_equal(starts, expected[1])
        else:
            assert starts is None


@given(dense_keys, dense_keys)
def test_multi_column_group_agrees_with_reference(a_keys, b_keys):
    n = min(len(a_keys), len(b_keys))
    a, b = int_column(a_keys[:n]), int_column(b_keys[:n])
    expected = sorted_group_rows([a, b])
    got = group_rows([a, b])
    assert np.array_equal(got[0], expected[0])
    assert np.array_equal(got[1], expected[1])


def test_extreme_key_ranges_do_not_alias():
    # lk - rmin would wrap around int64 here; the bounds check must happen
    # on original values so no phantom matches appear.
    lo, hi = -(2 ** 62) * 3 // 2, 2 ** 62 * 3 // 2
    left = int_column([lo, 0, hi])
    right = int_column([hi, hi - 1])
    expected = merge_join_indices([left], [right])
    got = join_indices([left], [right],
                       right_index=build_key_index(right.values))
    assert_same_pairs(got, expected)


def test_key_index_stats():
    index = build_key_index(np.array([7, 3, 9, 3], dtype=np.int64))
    assert not index.is_unique
    assert (index.min_value, index.max_value) == (3, 9)
    unique = build_key_index(np.array([4, 2, 8], dtype=np.int64))
    assert unique.is_unique


# ---------------------------------------------------------------------------
# cache-conscious primitives vs. the numpy calls they stand in for
# ---------------------------------------------------------------------------

I64 = np.iinfo(np.int64)
#: Row counts on both sides of the size gate.
GATE_SIZES = (0, 1, CACHE_KERNEL_MIN_ROWS - 1, CACHE_KERNEL_MIN_ROWS,
              3 * CACHE_KERNEL_MIN_ROWS + 7)


def _full_range(rng, n):
    return rng.integers(I64.min, I64.max, size=n, dtype=np.int64,
                        endpoint=True)


#: name -> (build values, probe keys) for ``n`` probe rows.
LOOKUP_REGIMES = {
    "sparse-negative": lambda rng, n: (
        _full_range(rng, max(n // 3, 1)), _full_range(rng, n)),
    "probe-is-build": lambda rng, n: (
        (build := _full_range(rng, max(n // 3, 1))),
        build[rng.integers(0, build.shape[0], size=n)]),
    "int64-extremes": lambda rng, n: (
        np.array([I64.min, I64.min, -1, 0, I64.max, I64.max]),
        rng.choice(np.array([I64.min, I64.min + 1, -1, 0, 1, I64.max - 1,
                             I64.max]), size=n)),
    "one-bucket": lambda rng, n: (
        rng.integers(1 << 40, (1 << 40) + 50, size=max(n // 3, 1)),
        rng.integers(1 << 40, (1 << 40) + 50, size=n)),
    "one-build-key": lambda rng, n: (
        np.array([7]), rng.integers(5, 10, size=n)),
    "keys-absent": lambda rng, n: (
        2 * rng.integers(-1000, 1000, size=max(n // 3, 1)),
        np.concatenate([2 * rng.integers(-3000, 3000, size=n - n // 2) + 1,
                        _full_range(rng, n // 2)])),
    "prime-field": lambda rng, n: (
        rng.integers(0, (1 << 31) - 1, size=max(n // 3, 1)),
        rng.integers(0, (1 << 31) - 1, size=n)),
}


@pytest.mark.parametrize("n", GATE_SIZES)
@pytest.mark.parametrize("regime", sorted(LOOKUP_REGIMES))
def test_sorted_lookup_is_searchsorted(regime, n):
    build, keys = LOOKUP_REGIMES[regime](np.random.default_rng(n), n)
    sorted_values = np.sort(build.astype(np.int64))
    keys = keys.astype(np.int64)
    for side in ("left", "right"):
        got = sorted_lookup(sorted_values, keys, side=side)
        expected = np.searchsorted(sorted_values, keys, side=side)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected), (regime, n, side)


def test_sorted_lookup_other_dtypes_and_empty_build():
    n = 2 * CACHE_KERNEL_MIN_ROWS
    rng = np.random.default_rng(3)
    floats = np.sort(rng.random(500))
    needles = rng.random(n)
    assert np.array_equal(sorted_lookup(floats, needles),
                          np.searchsorted(floats, needles))
    keys = _full_range(rng, n)
    empty = np.empty(0, dtype=np.int64)
    assert np.array_equal(sorted_lookup(empty, keys), np.zeros(n, np.intp))
    # A strided probe column (a view, not a copy) is probed in place.
    strided = _full_range(rng, 2 * n)[::2]
    build = np.sort(_full_range(rng, 999))
    assert np.array_equal(sorted_lookup(build, strided),
                          np.searchsorted(build, strided))


#: name -> values of ``n`` rows for the stable-argsort property.
ARGSORT_REGIMES = {
    "seven-values": lambda rng, n: rng.integers(-3, 4, size=n),
    "heavy-duplication": lambda rng, n: _full_range(
        rng, max(n // 50, 1))[rng.integers(0, max(n // 50, 1), size=n)],
    "pairs": lambda rng, n: np.repeat(_full_range(rng, n // 2 + 1), 2)[
        rng.permutation(2 * (n // 2 + 1))][:n],
    "all-distinct": lambda rng, n: rng.permutation(n) - n // 2,
    "all-equal": lambda rng, n: np.full(n, I64.min),
    "two-sorted-runs": lambda rng, n: np.concatenate(
        [np.arange(n - n // 2), np.arange(n // 2)]),
    "reversed": lambda rng, n: np.arange(n)[::-1] // 3,
    "unsigned": lambda rng, n: rng.integers(
        0, 1 << 64, size=n, dtype=np.uint64) >> np.uint64(rng.integers(40)),
    "floats": lambda rng, n: rng.integers(0, 9, size=n) / 4.0,
}


@pytest.mark.parametrize("n", GATE_SIZES)
@pytest.mark.parametrize("regime", sorted(ARGSORT_REGIMES))
def test_stable_argsort_is_numpys_stable_argsort(regime, n):
    values = np.asarray(ARGSORT_REGIMES[regime](np.random.default_rng(n), n))
    order, sorted_values = stable_argsort(values)
    expected = np.argsort(values, kind="stable")
    assert order.dtype == expected.dtype
    assert np.array_equal(order, expected), (regime, n)
    assert np.array_equal(sorted_values, values[expected])


@pytest.mark.parametrize("n", GATE_SIZES[2:])
def test_merge_probe_agrees_with_reference(n):
    """The ``sorted`` route (note ``merge``) over unique sparse build keys:
    a probe side shuffled or sorted, with unmatched rows, and a build side
    stored in either order, behind its index or sorted by the route, give
    the reference's pairs."""
    rng = np.random.default_rng(n)
    build = np.unique(_full_range(rng, n // 2 + 1))
    probe = np.concatenate([build[rng.integers(0, build.shape[0], size=n)],
                            _full_range(rng, n // 4)])
    rng.shuffle(probe)
    for left_values in (probe, np.sort(probe)):
        for right_values in (build, rng.permutation(build)):
            lcol, rcol = int_column(left_values), int_column(right_values)
            r_index = build_key_index(rcol.values)
            # Stored sorted, the index knows the keys unique; unsorted,
            # the route finds out itself.
            assert r_index.is_unique is (True if right_values is build
                                         else None)
            for index in (r_index, None):
                note: list = []
                got = join_indices([lcol], [rcol], right_index=index,
                                   note=note)
                assert note == ["merge"]
                assert_same_pairs(got, merge_join_indices([lcol], [rcol]))


# ---------------------------------------------------------------------------
# DISTINCT: one kernel and one row order, against the sorted row set
# ---------------------------------------------------------------------------

#: A dictionary of 512 entries: codes into it need 9 bits, so eight
#: columns of them overflow a word and no ranking can shrink them.
WIDE_DICTIONARY = np.arange(512, dtype=np.int64) * 7 - 1000
FLOAT_VALUES = (0.0, -0.0, float("nan"), 1.5, -2.0)
TEXT_VALUES = ("", "a", "ab", "b")
INT_ELEMENTS = (st.integers(-5, 5), st.integers(I64.min, I64.max))


def _encoded(values) -> Column:
    dictionary, codes = np.unique(np.asarray(values, dtype=np.int64),
                                  return_inverse=True)
    return Column.encoded(codes.astype(np.int64), dictionary)


@st.composite
def distinct_inputs(draw):
    """One to three integer columns, each plain or encoded, dense or
    full-range; eight or nine encoded columns too wide to pack; or a key
    with NULLs, floats or text."""
    n = draw(st.integers(0, 30))

    def drawn(elements):
        return draw(st.lists(elements, min_size=n, max_size=n))

    def int_key():
        values = drawn(draw(st.sampled_from(INT_ELEMENTS)))
        return _encoded(values) if draw(st.booleans()) \
            else int_column(values)

    shape = draw(st.sampled_from(("ints", "wide", "nulls", "floats",
                                  "text")))
    if shape == "ints":
        columns = [int_key() for _ in range(draw(st.integers(1, 3)))]
    elif shape == "wide":
        columns = [Column.encoded(np.asarray(drawn(st.integers(0, 511)),
                                             dtype=np.int64), WIDE_DICTIONARY)
                   for _ in range(draw(st.integers(8, 9)))]
    elif shape == "nulls":
        nulls = drawn(st.booleans())
        nullable = int_column(drawn(st.integers(-3, 3)), mask_positions=[
            i for i, null in enumerate(nulls) if null])
        columns = [int_key() for _ in range(draw(st.integers(0, 2)))]
        columns.insert(draw(st.integers(0, len(columns))), nullable)
    elif shape == "floats":
        columns = [Column.from_values(np.array(
            drawn(st.sampled_from(FLOAT_VALUES)), dtype=np.float64))
            for _ in range(draw(st.integers(1, 2)))]
        columns += [int_key() for _ in range(draw(st.integers(0, 1)))]
    else:
        nulls = np.array(drawn(st.booleans()), dtype=bool)
        text = Column(np.array(drawn(st.sampled_from(TEXT_VALUES)),
                               dtype=object), "text", nulls)
        columns = [text] + [int_key() for _ in range(draw(st.integers(0, 1)))]
    return columns


@given(distinct_inputs())
def test_distinct_rows_is_the_sorted_row_set(columns):
    """Whatever the branch, the output is the reference: the distinct
    rows in ascending key order, NULLs last, each NaN row kept apart — as
    columns of the input's types and forms, with the input's storage left
    as it was."""
    stored = [(col.storage.copy(), col.mask) for col in columns]
    got = distinct_rows(columns)
    assert row_tokens(got) == reference_rows(columns)
    for out, col in zip(got, columns):
        assert out.sql_type == col.sql_type
        assert out.dictionary is col.dictionary
    for col, (storage, mask) in zip(columns, stored):
        assert np.array_equal(col.storage, storage,
                              equal_nan=storage.dtype.kind == "f")
        assert col.mask is mask


def _blocks(columns: list[Column], keep: np.ndarray, size: int) -> list:
    """``columns`` cut into blocks of ``size`` rows, each with the rows
    ``keep`` holds there in :func:`kept_rows`' form — as a fused
    join→DISTINCT hands them."""
    return [([col.take(slice(start, start + size)) for col in columns],
             kept_rows(keep[start:start + size]))
            for start in range(0, keep.shape[0], size)]


@given(st.data())
def test_packed_distinct_over_blocks_is_the_sorted_row_set(data):
    """Packed block by block — each block's kept rows every row, a mask
    or positions — the output is the reference's over the kept rows,
    whatever the block size, and the kept count is theirs."""
    n = data.draw(st.integers(0, 40))

    def key():
        values = data.draw(st.lists(st.integers(-6, 6), min_size=n,
                                    max_size=n))
        return _encoded(values) if data.draw(st.booleans()) \
            else int_column(values)

    columns = [key() for _ in range(data.draw(st.integers(1, 3)))]
    keep = np.array(data.draw(st.lists(st.booleans(), min_size=n,
                                       max_size=n)), dtype=bool)
    size = data.draw(st.integers(1, 9))
    got, kept = packed_distinct(packed_keys(columns), n,
                                _blocks(columns, keep, size))
    assert row_tokens(got) == reference_rows(columns, keep)
    assert kept == int(keep.sum())
    for out, col in zip(got, columns):
        assert out.dictionary is col.dictionary


def _branch_keys(rng) -> dict:
    """3000-row key columns of every shape a branch serves."""
    n = 3000
    small = rng.integers(-40, 40, n)
    pool = np.concatenate([[I64.min, I64.max], _full_range(rng, 60)])
    full = pool[rng.integers(0, pool.shape[0], n)]
    other = pool[rng.integers(0, pool.shape[0], n)]
    mask = rng.random(n) < 0.2
    return {
        "small": small, "full": full, "other": other, "mask": mask,
        "floats": rng.choice(np.array(FLOAT_VALUES), n),
        "text": np.array(rng.choice(TEXT_VALUES, n), dtype=object),
        "wide": [rng.integers(0, 512, n) for _ in range(8)],
    }


#: name -> (the key columns, the branch they take).
BRANCH_CASES = {
    "codes-pair": (lambda k: [_encoded(k["full"]), _encoded(k["small"])],
                   "packed-codes"),
    "dense-plain-and-codes": (
        lambda k: [int_column(k["small"]), _encoded(k["full"])],
        "packed-offsets"),
    "sparse-single": (lambda k: [int_column(k["full"] >> 2)],
                      "packed-offsets"),
    "full-range-single": (lambda k: [int_column(k["full"])], "grouped"),
    "full-range-pair": (
        lambda k: [int_column(k["full"]), int_column(k["other"])], "grouped"),
    "full-range-and-codes": (
        lambda k: [_encoded(k["small"]), int_column(k["full"])], "grouped"),
    "wide-codes": (lambda k: [Column.encoded(codes, WIDE_DICTIONARY)
                              for codes in k["wide"]], "grouped"),
    "nulls": (lambda k: [int_column(k["small"],
                                    np.flatnonzero(k["mask"]).tolist()),
                         int_column(k["full"])], "grouped"),
    "floats": (lambda k: [Column.from_values(k["floats"])], "grouped"),
    "text": (lambda k: [Column(k["text"], "text"), int_column(k["small"])],
             "grouped"),
}


@pytest.mark.parametrize("case", sorted(BRANCH_CASES))
def test_each_branch_serves_its_keys(monkeypatch, case):
    """Each key shape takes its branch — codes packed as they are, plain
    offsets, and every other key grouped, offsets that overflow a word
    included — over every row and over the rows a WHERE kept (filtered
    first, as a DISTINCT that runs in no blocks is handed them), and the
    output is the reference's."""
    make, branch = BRANCH_CASES[case]
    columns = make(_branch_keys(np.random.default_rng(len(case))))
    taken = record_branches(monkeypatch)
    n = len(columns[0])
    for rows in (None, np.arange(0, n, 3),
                 np.flatnonzero(np.arange(n) % 5 != 2)):
        kept = columns if rows is None else [col.take(rows)
                                             for col in columns]
        got = distinct_rows(kept)
        assert row_tokens(got) == reference_rows(columns, rows), rows
    assert taken == [branch] * 3


#: Total packed width -> the widths of its columns, by form: words are
#: uint32 up to 32 bits and int64 above.  Codes need a dictionary of
#: 2^(width - 1) + 1 entries, so no two-code case reaches 63 bits.
PACKED_WIDTHS = {
    31: {"codes+plain": (12, 19), "plain+plain": (15, 16),
         "codes+codes": (16, 15)},
    32: {"codes+plain": (12, 20), "plain+plain": (16, 16),
         "codes+codes": (16, 16)},
    33: {"codes+plain": (13, 20), "plain+plain": (16, 17),
         "codes+codes": (17, 16)},
    63: {"codes+plain": (20, 43), "plain+plain": (31, 32)},
}

def _kept(rng, n: int, share: float) -> np.ndarray:
    """A mask keeping about ``share`` of ``n`` rows, rows 0 and 1 among
    them."""
    keep = rng.random(n) < share
    keep[:2] = True
    return keep


#: A selection's name -> the rows it keeps of a block of ``n``
#: (``rng``'s draw), in the form a block hands them in.
SELECTIONS = {
    "every-row": lambda rng, n: None,
    "positions": lambda rng, n: np.flatnonzero(_kept(rng, n, 0.5)),
    "mask-0": lambda rng, n: np.zeros(n, dtype=bool),
    "mask-50": lambda rng, n: _kept(rng, n, 0.5),
    "mask-80": lambda rng, n: _kept(rng, n, 0.8),
    "mask-100": lambda rng, n: np.ones(n, dtype=bool),
}

#: The uneven blocks the width tests cut their 3000 rows into.
WIDTH_BLOCKS = ((0, 1000), (1000, 2001), (2001, 3000))


def _width_key(form: str, width: int, rng, n: int) -> Column:
    """A key column of ``n`` rows whose offsets need exactly ``width``
    bits whatever rows a selection keeps: codes into a dictionary of
    2^(width - 1) + 1 entries, or plain values from a negative base to
    2^(width - 1) above it, both ends at rows 0 and 1 and every other row
    drawn from 40 values between (so rows repeat)."""
    top = 1 << (width - 1)
    pool = np.concatenate([[top, 0], rng.integers(0, top, 40)])
    offsets = np.concatenate([pool[:2], pool[rng.integers(2, 42, n - 2)]])
    if form == "codes":
        dictionary = np.arange(top + 1, dtype=np.int64) * 3 - 7
        return Column.encoded(offsets.astype(np.int64), dictionary)
    return int_column(offsets - (1 << 45) - 11)


@pytest.mark.parametrize("selection", sorted(SELECTIONS))
@pytest.mark.parametrize("width, forms", [
    (width, forms) for width, cases in sorted(PACKED_WIDTHS.items())
    for forms in sorted(cases)])
def test_packed_distinct_at_each_word_width_and_selection(
        monkeypatch, width, forms, selection):
    """Two keys whose offsets pack into exactly ``width`` bits — codes,
    plain values over a negative base, or one of each — in three blocks
    under every form of selection: the reference's rows, in key order
    and the input's forms, through uint32 words up to 32 bits and int64
    words above."""
    rng = np.random.default_rng(width)
    n = 3000
    columns = [_width_key(form, bits, rng, n) for form, bits in
               zip(forms.split("+"), PACKED_WIDTHS[width][forms])]
    blocks, kept = [], []
    for start, stop in WIDTH_BLOCKS:
        rows = SELECTIONS[selection](rng, stop - start)
        blocks.append(([col.take(slice(start, stop)) for col in columns],
                       rows))
        every = np.arange(start, stop)
        kept.append(every if rows is None else every[rows])
    narrow: list = []
    offsets_at = operators._offsets_at

    def recording(column, positions, narrow_words):
        narrow.append(narrow_words)
        return offsets_at(column, positions, narrow_words)

    monkeypatch.setattr(operators, "_offsets_at", recording)
    taken = record_branches(monkeypatch)
    got, _ = packed_distinct(packed_keys(columns), n, blocks)
    assert row_tokens(got) == reference_rows(columns, np.concatenate(kept))
    assert taken == ["packed-codes" if forms == "codes+codes"
                     else "packed-offsets"]
    assert narrow == [width <= operators.NARROW_WORD_BITS] * 6
    for out, col in zip(got, columns):
        assert out.storage.dtype == np.int64
        assert out.dictionary is col.dictionary


# ---------------------------------------------------------------------------
# key index builds and dictionary probes against numpy references
# ---------------------------------------------------------------------------


def _index_keys(rng, n, ordered, dense, unique):
    """``n`` keys: dense ids or sparse 64-bit values, distinct or drawn
    with repeats from a third as many, in storage or ascending order."""
    pool_size = n if unique else max(n // 3, 1)
    if dense:
        pool = 1000 + rng.permutation(2 * n + 1)[:pool_size]
    else:
        pool = rng.choice(_full_range(rng, 4 * n + 4), size=pool_size,
                          replace=False)
    keys = rng.permutation(pool) if unique \
        else pool[rng.integers(0, pool_size, size=n)]
    return np.sort(keys) if ordered else keys


@pytest.mark.parametrize("n", (1, 2, 37, 3 * CACHE_KERNEL_MIN_ROWS + 7))
@pytest.mark.parametrize("unique", (True, False), ids=("unique", "dups"))
@pytest.mark.parametrize("encoded", (False, True), ids=("plain", "encoded"))
@pytest.mark.parametrize("dense", (True, False), ids=("dense", "sparse"))
@pytest.mark.parametrize("ordered", (True, False), ids=("sorted", "unsorted"))
def test_key_index_matches_a_numpy_reference(ordered, dense, encoded,
                                             unique, n):
    """Every build — a sorted one reading its ends and one ``==`` pass, a
    dense one its ``bincount``, sparse codes their sort — holds what
    ``np.unique`` says about the keys; sparse unsorted values leave
    their uniqueness unknown, since no join route reads it."""
    rng = np.random.default_rng(n * 16 + ordered * 8 + dense * 4
                                + encoded * 2 + unique)
    values = _index_keys(rng, n, ordered, dense, unique)
    if encoded:
        dictionary, storage = np.unique(values, return_inverse=True)
        storage = storage.astype(np.int64)
        index = build_key_index(storage, dictionary)
    else:
        storage = values
        index = build_key_index(storage)
    is_sorted = bool(np.all(np.diff(storage) >= 0))
    assert index.n_rows == n
    assert index.is_unique == (
        None if not (is_sorted or dense or encoded)
        else np.unique(values).shape[0] == n)
    assert (index.min_value, index.max_value) == \
        (int(values.min()), int(values.max()))
    assert index.is_sorted == is_sorted


@pytest.mark.parametrize("n", (1, 50, 3 * CACHE_KERNEL_MIN_ROWS + 7))
@pytest.mark.parametrize("matched", ("all", "some", "none"))
def test_dense_probe_over_codes_skips_bounds_yet_matches_the_reference(
        matched, n):
    """Codes address a dictionary's slots by construction: the probe that
    skips its bounds reductions returns the bounds-checked probe's rows,
    and the reference join's."""
    rng = np.random.default_rng(n)
    dictionary = np.unique(_full_range(rng, 2 * n + 2))
    span = int(dictionary.shape[0])
    build = rng.permutation(span)[:max(span // 2, 1)]
    absent = np.setdiff1d(np.arange(span), build)
    if matched == "all":
        probe = build[rng.integers(0, build.shape[0], size=n)]
    elif matched == "some":
        probe = np.concatenate([build[rng.integers(0, build.shape[0], n)],
                                absent[rng.integers(0, absent.shape[0], 3)]])
        rng.shuffle(probe)
    else:
        probe = absent[rng.integers(0, absent.shape[0], size=n)]
    slots = np.full(span, NO_MATCH, dtype=np.int64)
    slots[build] = np.arange(build.shape[0])
    got = operators._dense_probe(probe, slots, None, None, 0, span, True)
    checked = operators._dense_probe(probe, slots, None, None, 0, span)
    assert (got[0] is None) == (matched == "all") == (checked[0] is None)
    assert np.array_equal(got[1], checked[1])
    if got[0] is not None:
        assert np.array_equal(got[0], checked[0])
    left = Column.encoded(probe, dictionary)
    right = Column.encoded(build, dictionary)
    note: list = []
    pairs = join_indices([left], [right], note=note)
    assert note == ["dense"]
    assert_same_pairs(pairs, merge_join_indices(
        [int_column(dictionary[probe])], [int_column(dictionary[build])]))


#: Build sides of ``n`` unique keys from ``low``: ``filled`` holds every
#: key of its range in order — key ``k`` is row ``k - low`` — and the
#: others must keep a table: ``unsorted`` (the range, reversed) and
#: ``holed`` (in order, one interior key missing, one more at the end).
BUILD_SHAPES = ("filled", "unsorted", "holed")


def _build_side(shape, low, n):
    keys = np.arange(n + (shape == "holed"), dtype=np.int64) + low
    if shape == "unsorted":
        return keys[::-1].copy()
    if shape == "holed":
        return np.delete(keys, (n + 1) // 2)
    return keys


@given(
    shape=st.sampled_from(BUILD_SHAPES),
    low=st.one_of(st.integers(min_value=-5, max_value=5),
                  st.just(int(I64.min)),
                  st.integers(min_value=2 ** 62, max_value=2 ** 62 + 9)),
    n=st.integers(min_value=2, max_value=40),
    misses=st.booleans(),
    encoded=st.booleans(),
    null_probes=st.booleans(),
    data=st.data(),
)
def test_build_sides_that_fill_their_domain_skip_the_table(
        shape, low, n, misses, encoded, null_probes, data):
    """A build side whose index shows every key of its domain, in order,
    takes the tableless route — ``dense-offset``, over values or over
    codes, whose domain is the dictionary — and any other keeps the table; inner and LEFT joins give the
    reference's pairs either way, with and without probe keys outside
    the build side (below its range, above it, in its hole) and NULL
    probe keys."""
    build = _build_side(shape, low, n)
    probe = data.draw(st.lists(st.sampled_from(build.tolist()),
                               min_size=1, max_size=50))
    if misses:
        outside = [low - 1, int(build.max()) + 1]
        if shape == "holed":
            outside.append(low + (n + 1) // 2)
        probe += [key for key in outside if I64.min <= key <= I64.max]
        probe = data.draw(st.permutations(probe))
    probe = np.array(probe, dtype=np.int64)
    # An encoded column holds no NULL; one probe key at least is not.
    nulls = sorted(data.draw(st.sets(
        st.integers(min_value=0, max_value=probe.shape[0] - 1),
        max_size=min(3, probe.shape[0] - 1)))) \
        if null_probes and not encoded else []
    if encoded:
        dictionary = np.unique(np.concatenate([probe, build]))
        left, right = (Column.encoded(np.searchsorted(dictionary, keys),
                                      dictionary)
                       for keys in (probe, build))
        fills = shape != "unsorted" and dictionary.shape[0] == n
        kind = "dense-offset" if fills else "dense-unique"
    else:
        left = int_column(probe, nulls)
        right = int_column(build)
        kind = "dense-offset" if shape == "filled" else None
    index = build_key_index(right.storage, right.dictionary)
    got, l_idx, r_idx = operators.join_rows([left], [right],
                                            right_index=index)
    if kind is not None:
        assert got == kind
    else:
        assert got != "dense-offset"
    expected = merge_join_indices([int_column(probe, nulls)],
                                  [int_column(build)])
    assert_same_pairs(operators.spelled_out(l_idx, r_idx), expected)
    if got == "dense-offset":
        every_row = expected[0].shape[0] == probe.shape[0]
        assert (l_idx is None) == (every_row and not nulls)
        assert not r_idx.flags.writeable or not np.shares_memory(
            r_idx, left.storage)
    assert_same_pairs(
        join_indices([left], [right], right_index=index), expected)
    assert_same_pairs(
        left_join_indices([left], [right], right_index=index),
        operators.pad_left_outer(*expected, probe.shape[0]))


def test_offset_route_never_hands_out_a_writable_probe_array():
    """Keys from 0 that every build row holds: the right rows are the
    probe array itself, behind a read-only view; from another origin
    they are a new array."""
    probe = np.array([2, 0, 1, 1], dtype=np.int64)
    for low, aliased in ((0, True), (5, False)):
        left = int_column(probe + low)
        kind, l_idx, r_idx = operators.join_rows(
            [left], [int_column(np.arange(3) + low)],
            right_index=build_key_index(np.arange(3) + low))
        assert kind == "dense-offset"
        assert l_idx is None and r_idx.tolist() == [2, 0, 1, 1]
        assert not r_idx.flags.writeable if aliased else r_idx.flags.writeable
        assert np.shares_memory(r_idx, left.values) == aliased
