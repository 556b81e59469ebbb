"""Tests for the EdgeList container."""

import numpy as np
import pytest
from hypothesis import given

from repro.graphs import EdgeList
from repro.graphs.edgelist import sorted_unique

from .conftest import edge_lists


def test_from_pairs_and_lengths():
    edges = EdgeList.from_pairs([(1, 2), (3, 4)])
    assert edges.n_edges == 2
    assert edges.n_vertices == 4


def test_empty():
    edges = EdgeList.empty()
    assert edges.n_edges == 0
    assert edges.n_vertices == 0
    assert edges.max_vertex_id() == -1


def test_vertices_sorted_unique():
    edges = EdgeList.from_pairs([(5, 1), (1, 5), (3, 3)])
    assert edges.vertices().tolist() == [1, 3, 5]


def test_canonical_dedups_and_orients():
    edges = EdgeList.from_pairs([(2, 1), (1, 2), (1, 2)])
    canonical = edges.canonical()
    assert canonical.n_edges == 1
    assert (canonical.src[0], canonical.dst[0]) == (1, 2)


def test_canonical_keeps_loop_only_for_isolated_vertices():
    edges = EdgeList.from_pairs([(1, 2), (1, 1), (7, 7)])
    canonical = edges.canonical()
    pairs = set(zip(canonical.src.tolist(), canonical.dst.tolist()))
    assert pairs == {(1, 2), (7, 7)}


def test_doubled():
    edges = EdgeList.from_pairs([(1, 2)])
    doubled = edges.doubled()
    pairs = set(zip(doubled.src.tolist(), doubled.dst.tolist()))
    assert pairs == {(1, 2), (2, 1)}


@given(edge_lists())
def test_canonical_preserves_vertex_set(edges):
    assert np.array_equal(edges.canonical().vertices(), edges.vertices())


@given(edge_lists())
def test_randomised_ids_preserve_structure(edges):
    rng = np.random.default_rng(0)
    relabelled = edges.with_randomised_ids(rng)
    assert relabelled.n_edges == edges.n_edges
    assert relabelled.n_vertices == edges.n_vertices
    # Degree multiset is invariant under relabelling.
    assert relabelled.degree_histogram() == edges.degree_histogram()


def test_randomised_ids_rejects_small_id_space():
    edges = EdgeList.from_pairs([(1, 2), (3, 4)])
    with pytest.raises(ValueError):
        edges.with_randomised_ids(np.random.default_rng(0), id_space=2)


def test_relabelled_explicit_mapping():
    edges = EdgeList.from_pairs([(1, 2), (2, 3)])
    out = edges.relabelled(np.array([1, 2, 3]), np.array([10, 20, 30]))
    assert set(zip(out.src.tolist(), out.dst.tolist())) == {(10, 20), (20, 30)}


def test_relabelled_requires_full_coverage():
    edges = EdgeList.from_pairs([(1, 2)])
    with pytest.raises(ValueError):
        edges.relabelled(np.array([1]), np.array([10]))


def test_concat_and_offset():
    a = EdgeList.from_pairs([(1, 2)])
    b = EdgeList.from_pairs([(1, 2)]).offset_ids(10)
    both = a.concat(b)
    assert both.n_edges == 2
    assert both.n_vertices == 4


def test_degree_histogram_ignores_loops():
    edges = EdgeList.from_pairs([(1, 2), (2, 3), (9, 9)])
    histogram = edges.degree_histogram()
    assert histogram == {1: 2, 2: 1}


def test_byte_size():
    edges = EdgeList.from_pairs([(1, 2), (3, 4)])
    assert edges.byte_size() == 32


def test_equality_is_structural():
    a = EdgeList.from_pairs([(1, 2), (3, 4)])
    b = EdgeList.from_pairs([(4, 3), (2, 1), (1, 2)])
    assert a == b
    c = EdgeList.from_pairs([(1, 2)])
    assert a != c


def test_mismatched_arrays_rejected():
    with pytest.raises(ValueError):
        EdgeList(np.array([1, 2]), np.array([1]))


# -- canonical() against the np.unique(axis=0) form it replaced ---------------


def _reference_canonical(edges):
    """The earlier ``EdgeList.canonical``, kept as the bit-identity oracle."""
    if edges.n_edges == 0:
        return EdgeList.empty()
    lo = np.minimum(edges.src, edges.dst)
    hi = np.maximum(edges.src, edges.dst)
    pairs = np.unique(np.stack([lo, hi], axis=1), axis=0)
    loops = pairs[:, 0] == pairs[:, 1]
    if loops.any():
        proper = pairs[~loops]
        touched = np.unique(proper.ravel()) if proper.size else np.empty(0, np.int64)
        loop_ids = pairs[loops, 0]
        keep_loops = ~np.isin(loop_ids, touched)
        pairs = np.concatenate([proper, np.stack(
            [loop_ids[keep_loops], loop_ids[keep_loops]], axis=1)])
    return EdgeList(pairs[:, 0], pairs[:, 1])


def _assert_bit_identical(edges):
    expected = _reference_canonical(edges)
    got = edges.canonical()
    assert got.src.dtype == got.dst.dtype == np.int64
    assert got.src.tobytes() == expected.src.tobytes()
    assert got.dst.tobytes() == expected.dst.tobytes()


def _random_pairs(rng, low, high, size):
    return EdgeList(rng.integers(low, high, size), rng.integers(low, high, size))


def test_canonical_matches_reference_on_random_pairs():
    rng = np.random.default_rng(11)
    _assert_bit_identical(_random_pairs(rng, 0, 1_000, 5_000))
    _assert_bit_identical(_random_pairs(rng, 1, 1 << 31, 5_000))


def test_canonical_matches_reference_on_duplicate_heavy_pairs():
    rng = np.random.default_rng(12)
    edges = _random_pairs(rng, 0, 6, 2_000)
    _assert_bit_identical(edges)
    _assert_bit_identical(edges.concat(edges).concat(edges.doubled()))


def test_canonical_matches_reference_on_loops():
    rng = np.random.default_rng(13)
    edges = _random_pairs(rng, 0, 300, 1_000)
    edges.dst[::3] = edges.src[::3]
    # Loops on ids no proper edge touches: isolated vertices, kept once.
    isolated = np.arange(1_000, 1_040, dtype=np.int64)
    edges = edges.concat(EdgeList(isolated, isolated))
    edges = edges.concat(EdgeList(isolated[::2], isolated[::2]))
    _assert_bit_identical(edges)
    only_loops = EdgeList(isolated[::-1], isolated[::-1])
    _assert_bit_identical(only_loops)
    assert only_loops.canonical().src.tolist() == isolated.tolist()


@pytest.mark.parametrize("low, high", [
    (-1_000, 1_000),                # negative ids
    ((1 << 31) - 50, (1 << 31) + 50),  # straddling the packed bound
    (1 << 31, (1 << 31) + 500),     # every id past it
    (0, 1 << 62),                   # sparse 62-bit ids
])
def test_canonical_matches_reference_past_the_packed_range(low, high):
    rng = np.random.default_rng(14)
    edges = _random_pairs(rng, low, high, 3_000)
    edges = edges.concat(edges.doubled())
    edges.dst[::7] = edges.src[::7]
    _assert_bit_identical(edges)


def test_canonical_matches_reference_at_the_packed_bound():
    top = (1 << 31) - 1
    _assert_bit_identical(EdgeList.from_pairs(
        [(top, 0), (0, top), (top, top), (top - 1, top), (5, 5)]))
    _assert_bit_identical(EdgeList.from_pairs([(top + 1, 0), (0, 0)]))


@pytest.mark.parametrize("pairs", [[], [(3, 1)], [(4, 4)]])
def test_canonical_matches_reference_on_tiny_lists(pairs):
    _assert_bit_identical(EdgeList.from_pairs(pairs))


@given(edge_lists())
def test_canonical_matches_reference(edges):
    _assert_bit_identical(edges)


@pytest.mark.parametrize("values", [
    np.array([], dtype=np.int64),
    np.array([7], dtype=np.int64),
    np.random.default_rng(15).integers(-50, 50, 1_000),
    np.random.default_rng(16).integers(0, 1 << 63, 1_000, dtype=np.uint64),
    np.random.default_rng(17).random(500).round(1),
])
def test_sorted_unique_matches_np_unique(values):
    got = sorted_unique(values)
    expected = np.unique(values)
    assert got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()
    both = sorted_unique(values, values[::-1])
    assert both.tobytes() == expected.tobytes()
