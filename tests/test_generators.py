"""Tests for the synthetic graph generators."""

import hashlib

import numpy as np
import pytest

from repro.core.unionfind import count_components, ground_truth_labels
from repro.graphs import (
    complete_graph,
    cycle_graph,
    gnm_random_graph,
    path_graph,
    path_union,
    rmat_graph,
    star_graph,
)


def test_path_graph_shape():
    edges = path_graph(10)
    assert edges.n_edges == 9
    assert edges.n_vertices == 10
    assert count_components(edges) == 1


def test_path_graph_is_sequentially_numbered():
    edges = path_graph(5, start_id=3)
    assert edges.vertices().tolist() == [3, 4, 5, 6, 7]
    assert edges.src.tolist() == [3, 4, 5, 6]


def test_path_graph_single_vertex_is_loop():
    edges = path_graph(1)
    assert edges.n_edges == 1
    assert edges.src.tolist() == edges.dst.tolist() == [1]


def test_path_union_component_count():
    edges = path_union(4, 8)
    assert count_components(edges) == 4
    # Lengths 8, 16, 32, 64.
    assert edges.n_vertices == 8 + 16 + 32 + 64


def test_path_union_interleaves_ids():
    edges = path_union(3, 4, interleaved_ids=True)
    # Consecutive IDs must sit on different paths: an edge always spans
    # exactly n_paths in ID space.
    assert ((edges.dst - edges.src) == 3).all()


def test_path_union_block_numbering():
    edges = path_union(2, 4, interleaved_ids=False)
    assert count_components(edges) == 2
    assert ((edges.dst - edges.src) == 1).all()


def test_cycle_graph():
    edges = cycle_graph(6)
    assert edges.n_edges == 6
    assert count_components(edges) == 1
    assert edges.degree_histogram() == {2: 6}


def test_cycle_requires_three():
    with pytest.raises(ValueError):
        cycle_graph(2)


def test_star_graph():
    edges = star_graph(7)
    assert edges.n_edges == 7
    histogram = edges.degree_histogram()
    assert histogram[7] == 1 and histogram[1] == 7


def test_complete_graph():
    edges = complete_graph(6)
    assert edges.n_edges == 15
    assert edges.degree_histogram() == {5: 6}


def test_gnm_random_graph_bounds():
    rng = np.random.default_rng(7)
    edges = gnm_random_graph(50, 80, rng)
    assert edges.n_edges <= 80
    assert edges.max_vertex_id() <= 50
    canonical = edges.canonical()
    assert canonical.n_edges == edges.n_edges  # already deduplicated


def _digest(edges):
    return hashlib.sha256(edges.src.tobytes() + edges.dst.tobytes()).hexdigest()


# Generated graphs are pinned byte for byte: a generator that is rewritten
# must draw the same numbers in the same order and keep the same edges in
# the same order, or every count metric over these graphs moves.
@pytest.mark.parametrize("n, m, seed, digest", [
    (500_000, 1_000_000, 7,
     "630275f58fcbd303ebf535ad9ff957025e540c53849960ec554bd51909b802ae"),
    (50_000, 100_000, 7,
     "003c89884aacc8d7e8a2fd0967d1b68a8e8896d16f4219711389fd9717ad4498"),
    (1_000, 2_000, 7,
     "82b6605bab56b35e01f5f6b10752a7bbffe99fb09ef75f24abe6aa1e407cf948"),
    (500_000, 1_000_000, 20200420,
     "ee751514de14ccbfe6e7ede9916982e71c2e8249c0a767c4794e4ede4b966391"),
    (50_000, 100_000, 20200420,
     "bcf172e503877c0572adee878304dce4432a71ec83d7617a95778a837f9b1700"),
    (1_000, 2_000, 20200420,
     "6c12674a3b79d41f870c2c927fb654b36a50e40b95b24a938dce3a2d75509f02"),
])
def test_gnm_random_graph_is_pinned(n, m, seed, digest):
    edges = gnm_random_graph(n, m, np.random.default_rng(seed))
    assert edges.n_edges == m
    assert _digest(edges) == digest


def test_rmat_graph_is_pinned():
    edges = rmat_graph(15, 644_000, np.random.default_rng(3))
    assert edges.n_edges == 530_876
    assert _digest(edges) == (
        "234adbb77c508e13ae82f218891aad563efa366ccd6c2084ee5343f4b3914922")


def test_rmat_graph_basic_shape():
    rng = np.random.default_rng(42)
    edges = rmat_graph(10, 4000, rng)
    assert edges.n_vertices <= 1 << 10
    assert edges.n_edges > 500
    # Heavy-tailed: the maximum degree dwarfs the average.
    histogram = edges.degree_histogram()
    max_degree = max(histogram)
    average = 2 * edges.n_edges / edges.n_vertices
    assert max_degree > 4 * average


def test_rmat_probabilities_validated():
    with pytest.raises(ValueError):
        rmat_graph(8, 100, np.random.default_rng(0), a=0.9, b=0.9, c=0.1, d=0.1)


def test_rmat_id_randomisation_decouples_ids():
    rng = np.random.default_rng(1)
    raw = rmat_graph(8, 800, rng, randomise_ids=False)
    rng = np.random.default_rng(1)
    shuffled = rmat_graph(8, 800, rng, randomise_ids=True)
    # Same structure, different ID ranges.
    assert shuffled.n_edges == raw.n_edges
    assert shuffled.max_vertex_id() > raw.max_vertex_id()


def test_ground_truth_labels_on_known_graph():
    edges = path_union(2, 4, interleaved_ids=False)
    vertices, labels = ground_truth_labels(edges)
    # First path: 1..4 labelled 1; second: 5..12 labelled 5.
    by_vertex = dict(zip(vertices.tolist(), labels.tolist()))
    assert by_vertex[1] == by_vertex[4] == 1
    assert by_vertex[5] == by_vertex[12] == 5
