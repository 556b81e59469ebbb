"""Ground-truth connected components.

Two independent reference implementations:

* :class:`UnionFind` — the classical disjoint-set forest with union by size
  and path compression (the paper's Section I baseline for the sequential
  setting), used directly in property tests;
* :func:`ground_truth_labels` — a fast path through
  ``scipy.sparse.csgraph.connected_components``.

The test suite cross-checks the two against each other (and against
networkx), so every SQL algorithm is validated against an agreed truth.

scipy is imported on the first call of :func:`ground_truth_labels`, not
with the module: only validation and the tests need it, and loading
``scipy.sparse`` costs a labelling process ~25 MB of resident memory,
~20k objects for the cycle collector to walk and ~0.2 s of import
(``tests/test_import_footprint.py`` pins that it stays unloaded).
"""

from __future__ import annotations

import numpy as np

from ..graphs.edgelist import EdgeList, sorted_unique


class UnionFind:
    """Disjoint-set forest with union by size and path compression."""

    def __init__(self) -> None:
        self._parent: dict[int, int] = {}
        self._size: dict[int, int] = {}

    def find(self, x: int) -> int:
        """Return the representative of ``x``'s set (creating it if new)."""
        parent = self._parent
        if x not in parent:
            parent[x] = x
            self._size[x] = 1
            return x
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a: int, b: int) -> int:
        """Merge the sets of ``a`` and ``b``; returns the new root."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        if self._size[ra] < self._size[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._size[ra] += self._size[rb]
        return ra

    def connected(self, a: int, b: int) -> bool:
        return self.find(a) == self.find(b)

    def components(self) -> dict[int, list[int]]:
        """root -> sorted members, over every element ever seen."""
        groups: dict[int, list[int]] = {}
        for x in list(self._parent):
            groups.setdefault(self.find(x), []).append(x)
        for members in groups.values():
            members.sort()
        return groups

    def labels(self) -> dict[int, int]:
        """element -> smallest member of its set."""
        result: dict[int, int] = {}
        for root, members in self.components().items():
            smallest = members[0]
            for member in members:
                result[member] = smallest
        return result


def unionfind_labels(edges: EdgeList) -> dict[int, int]:
    """Labels by union-find (pure Python; fine up to ~10^6 edges)."""
    uf = UnionFind()
    for a, b in zip(edges.src.tolist(), edges.dst.tolist()):
        uf.union(a, b)
    return uf.labels()


def ground_truth_labels(edges: EdgeList) -> tuple[np.ndarray, np.ndarray]:
    """(vertices, labels): canonical min-ID labels via scipy.

    ``vertices`` is sorted; ``labels[i]`` is the smallest vertex ID in the
    component of ``vertices[i]``.
    """
    vertices = edges.vertices()
    n = vertices.shape[0]
    if n == 0:
        return vertices, vertices.copy()
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    src = np.searchsorted(vertices, edges.src)
    dst = np.searchsorted(vertices, edges.dst)
    matrix = coo_matrix(
        (np.ones(edges.n_edges, dtype=np.int8), (src, dst)), shape=(n, n)
    )
    _, assignment = connected_components(matrix, directed=False)
    # Convert arbitrary component ids to canonical min-vertex labels.
    order = np.argsort(assignment, kind="stable")
    sorted_assignment = assignment[order]
    group_start = np.concatenate(
        ([True], sorted_assignment[1:] != sorted_assignment[:-1])
    )
    starts = np.flatnonzero(group_start)
    min_per_group = np.minimum.reduceat(vertices[order], starts)
    labels = np.empty(n, dtype=np.int64)
    group_index = np.cumsum(group_start) - 1
    labels[order] = min_per_group[group_index]
    return vertices, labels


def count_components(edges: EdgeList) -> int:
    """Number of connected components (isolated loop-vertices count)."""
    _, labels = ground_truth_labels(edges)
    if labels.shape[0] == 0:
        return 0
    return int(sorted_unique(labels).shape[0])
