"""Synthetic graph generators.

Covers the structural families of the paper's test bench (Section VII-A):
path graphs (the worst cases of Figure 2 and Table II's Path100M), unions
of paths (PathUnion10, the Two-Phase worst case), R-MAT random graphs with
the parameters of Kiveris et al., plus the small standard graphs the test
suite uses (cycles, stars, cliques, G(n, m)).
"""

from __future__ import annotations

import numpy as np

from .edgelist import EdgeList, sorted_distinct_pairs


def path_graph(n: int, start_id: int = 1) -> EdgeList:
    """Sequentially numbered path: IDs start_id .. start_id+n-1.

    With sequential numbering this is the adversarial input of Figure 2(a):
    deterministic min-contraction removes one vertex per round.
    """
    if n < 1:
        raise ValueError("path needs at least one vertex")
    if n == 1:
        only = np.array([start_id], dtype=np.int64)
        return EdgeList(only, only.copy())
    ids = np.arange(start_id, start_id + n, dtype=np.int64)
    return EdgeList(ids[:-1], ids[1:])


def path_union(
    n_paths: int,
    base_length: int,
    interleaved_ids: bool = True,
) -> EdgeList:
    """A disjoint union of paths of doubling lengths.

    Reproduces the role of the paper's PathUnion10 dataset: "a union of path
    graphs of different lengths with vertices numbered in a specific way"
    that is the worst case for the Two-Phase algorithm.  With
    ``interleaved_ids`` the vertex numbering runs across the paths round-
    robin, so ID-ordered star operations keep every path long.
    """
    lengths = [base_length * (1 << i) for i in range(n_paths)]
    total = sum(lengths)
    if interleaved_ids:
        # Position j of path p gets ID j * n_paths + p + 1: consecutive IDs
        # always sit on *different* paths.
        sources = []
        targets = []
        for p, length in enumerate(lengths):
            positions = np.arange(length - 1, dtype=np.int64)
            sources.append(positions * n_paths + p + 1)
            targets.append((positions + 1) * n_paths + p + 1)
        return EdgeList(np.concatenate(sources), np.concatenate(targets))
    graphs = []
    offset = 1
    for length in lengths:
        graphs.append(path_graph(length, start_id=offset))
        offset += length
    result = EdgeList.empty()
    for graph in graphs:
        result = result.concat(graph)
    return result


def cycle_graph(n: int, start_id: int = 1) -> EdgeList:
    """A simple cycle on n >= 3 vertices."""
    if n < 3:
        raise ValueError("cycle needs at least three vertices")
    ids = np.arange(start_id, start_id + n, dtype=np.int64)
    return EdgeList(ids, np.roll(ids, -1))


def star_graph(n_leaves: int, centre_id: int = 1) -> EdgeList:
    """A star: centre connected to n_leaves leaves."""
    if n_leaves < 1:
        raise ValueError("star needs at least one leaf")
    leaves = np.arange(centre_id + 1, centre_id + 1 + n_leaves, dtype=np.int64)
    centre = np.full(n_leaves, centre_id, dtype=np.int64)
    return EdgeList(centre, leaves)


def complete_graph(n: int, start_id: int = 1) -> EdgeList:
    """The complete graph K_n."""
    if n < 2:
        raise ValueError("complete graph needs at least two vertices")
    ids = np.arange(start_id, start_id + n, dtype=np.int64)
    src, dst = np.triu_indices(n, k=1)
    return EdgeList(ids[src], ids[dst])


def gnm_random_graph(n: int, m: int, rng: np.random.Generator) -> EdgeList:
    """G(n, m)-like: 2m endpoint pairs drawn uniformly, loops and duplicates
    removed, and the first m of the remaining pairs kept.

    The kept pairs are the first m in lexicographic (lo, hi) order, not a
    uniform sample of them, so the graph is *not* uniform G(n, m): every
    edge has a low-id endpoint.  At n = 500 000, m = 1 000 000 and seed 7
    every kept edge has lo <= 146 435, about (1 - 1/sqrt 2) n, the lo below
    which half of the ~2m distinct pairs fall.  Which pairs are kept fixes
    every generated graph, and with it the count metrics of every
    benchmark over one, so it stays as it is.

    The work is done in place over the two draws, so the peak is about
    three arrays of 2m int64.
    """
    if n < 2:
        raise ValueError("G(n, m) needs at least two vertices")
    src = rng.integers(0, n, size=2 * m, dtype=np.int64)
    dst = rng.integers(0, n, size=2 * m, dtype=np.int64)
    lo = np.minimum(src, dst)
    hi = np.maximum(src, dst, out=dst)
    del src, dst
    proper = lo != hi
    lo = lo[proper]
    hi = hi[proper]
    del proper
    lo, hi = sorted_distinct_pairs(lo, hi)
    return EdgeList(lo[:m] + 1, hi[:m] + 1)


def rmat_graph(
    scale: int,
    n_edges: int,
    rng: np.random.Generator,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    d: float = 0.05,
    randomise_ids: bool = True,
) -> EdgeList:
    """R-MAT recursive-matrix random graph (Chakrabarti et al. 2004).

    ``scale`` is log2 of the vertex-ID domain.  The default parameters
    (0.57, 0.19, 0.19, 0.05) are exactly those used by Kiveris et al. and
    therefore by the paper's RMAT dataset; vertex IDs are randomised
    afterwards "to decouple the graph structure from artefacts of the
    generation technique" (Section VII-A).
    """
    if not np.isclose(a + b + c + d, 1.0):
        raise ValueError("R-MAT probabilities must sum to 1")
    src = np.zeros(n_edges, dtype=np.int64)
    dst = np.zeros(n_edges, dtype=np.int64)
    for level in range(scale):
        quadrant = rng.random(n_edges)
        # Quadrants: a -> (0,0), b -> (0,1), c -> (1,0), d -> (1,1).
        go_down = quadrant >= a + b
        go_right = ((quadrant >= a) & (quadrant < a + b)) | (quadrant >= a + b + c)
        src = (src << 1) | go_down.astype(np.int64)
        dst = (dst << 1) | go_right.astype(np.int64)
    keep = src != dst
    edges = EdgeList(src[keep] + 1, dst[keep] + 1)
    if randomise_ids:
        edges = edges.with_randomised_ids(rng)
    return edges.canonical()
