"""Contraction-factor theory: Theorem 1, Lemma 1 and Appendix B.

The paper's performance analysis rests on one quantity: the expected
fraction gamma of vertices that survive one contraction round.  Section VI
proves gamma <= 3/4 for the random-reals and finite-fields methods;
Appendix B sharpens this to gamma <= 2/3 under full randomisation (uniform
random vertex orderings), a bound that is tight for the directed 3-cycle.

This module provides the machinery to *measure* those statements:

* :func:`exact_expected_gamma` — exact expectation by enumerating all |V|!
  orderings (small graphs), for undirected or directed inputs;
* :func:`monte_carlo_gamma` — estimates gamma on real graphs under any of
  the implemented randomisation methods;
* :func:`type_census` / :func:`lemma1_counts` — the type-0/1/2+ vertex
  classification behind Lemma 1, with the exact per-vertex counting that
  the lemma's injection argument is about.

Figure 9's record-gamma graph (gamma = 81215/144144) is only depicted as an
image in the paper, so its exact adjacency is not recoverable; the
enumeration machinery here reproduces every bound that is stated in text
(directed 3-cycle = 2/3, Theorem 1's 3/4, Theorem 2's 2/3).
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from ..ff.permutation import RandomisationMethod, get_method
from ..graphs.edgelist import EdgeList, sorted_unique


def _closed_out_neighbourhoods(
    n: int, arcs: Iterable[tuple[int, int]]
) -> list[list[int]]:
    """N+[v] for vertices 0..n-1 given arcs (directed edges)."""
    neighbourhoods: list[set[int]] = [{v} for v in range(n)]
    for a, b in arcs:
        neighbourhoods[a].add(b)
    return [sorted(s) for s in neighbourhoods]


def representatives_under_labelling(
    neighbourhoods: Sequence[Sequence[int]], label: Sequence[int]
) -> set[int]:
    """{r(v)} for all v, where r(v) = argmin_{w in N+[v]} label[w]."""
    chosen = set()
    for out in neighbourhoods:
        best = min(out, key=lambda w: label[w])
        chosen.add(best)
    return chosen


def exact_expected_gamma(
    n: int,
    edges: Iterable[tuple[int, int]],
    directed: bool = False,
) -> Fraction:
    """Exact E[#representatives] / n over all n! labellings.

    Vertices are 0..n-1.  For undirected graphs each edge contributes both
    arcs (the Appendix-B convention).  Every vertex must have a non-empty
    out-neighbourhood for the directed case (Theorem 2's hypothesis); for
    undirected graphs the closed neighbourhood always includes v itself so
    the function is total either way.  Practical up to n ~ 9.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    if n > 10:
        raise ValueError("exact enumeration is factorial; use monte_carlo_gamma")
    arc_list = list(edges)
    if not directed:
        arc_list = arc_list + [(b, a) for a, b in arc_list]
    neighbourhoods = _closed_out_neighbourhoods(n, arc_list)
    total = 0
    count = 0
    for permutation in itertools.permutations(range(n)):
        total += len(representatives_under_labelling(neighbourhoods, permutation))
        count += 1
    return Fraction(total, count * n)


def directed_three_cycle_gamma() -> Fraction:
    """Gamma of the directed 3-cycle — Appendix B's tight case (= 2/3)."""
    return exact_expected_gamma(3, [(0, 1), (1, 2), (2, 0)], directed=True)


def type_census(
    neighbourhoods: Sequence[Sequence[int]], label: Sequence[int]
) -> tuple[int, int, int]:
    """(type0, type1, type2+) counts under one labelling (Appendix B).

    Type 0: the vertex represents nobody; type 1: exactly one vertex;
    type 2+: two or more.
    """
    times_chosen = [0] * len(neighbourhoods)
    for out in neighbourhoods:
        best = min(out, key=lambda w: label[w])
        times_chosen[best] += 1
    type0 = sum(1 for c in times_chosen if c == 0)
    type1 = sum(1 for c in times_chosen if c == 1)
    type2 = sum(1 for c in times_chosen if c >= 2)
    return type0, type1, type2


def lemma1_counts(
    n: int,
    arcs: Iterable[tuple[int, int]],
    vertex: int,
) -> tuple[int, int]:
    """(#labellings where ``vertex`` is type 1, #labellings where type 0).

    Lemma 1 states the first is <= the second for any directed graph where
    the vertex has a non-empty out-neighbourhood.  Exact enumeration; small
    n only.
    """
    neighbourhoods = _closed_out_neighbourhoods(n, list(arcs))
    if len(neighbourhoods[vertex]) <= 1:
        raise ValueError("Lemma 1 requires N+(v) to be non-empty")
    type1 = 0
    type0 = 0
    for permutation in itertools.permutations(range(n)):
        times = 0
        for out in neighbourhoods:
            best = min(out, key=lambda w: permutation[w])
            if best == vertex:
                times += 1
                if times > 1:
                    break
        if times == 0:
            type0 += 1
        elif times == 1:
            type1 += 1
    return type1, type0


def one_round_surviving_fraction(
    edges: EdgeList,
    method: RandomisationMethod | str,
    rng: random.Random,
) -> float:
    """Fraction of vertices chosen as representatives in one round.

    Applies one draw of the given randomisation method to the (doubled)
    edge list and counts distinct representatives, exactly what one
    contraction round of the algorithm keeps.  Isolated vertices are absent
    by construction (every listed vertex has an edge), matching the
    theorem's setting.
    """
    if isinstance(method, str):
        method = get_method(method)
    vertices = edges.vertices()
    n = vertices.shape[0]
    if n == 0:
        raise ValueError("empty graph")
    round_fn = method.new_round(rng)
    h_all = np.asarray(round_fn.apply(vertices.astype(np.uint64)))
    # Position-indexed h values; minimise over closed neighbourhoods.
    src_idx = np.searchsorted(vertices, edges.src)
    dst_idx = np.searchsorted(vertices, edges.dst)
    best = h_all.copy()
    np.minimum.at(best, src_idx, h_all[dst_idx])
    np.minimum.at(best, dst_idx, h_all[src_idx])
    return float(sorted_unique(best).shape[0] / n)


def monte_carlo_gamma(
    edges: EdgeList,
    method: RandomisationMethod | str = "finite-fields",
    rounds: int = 32,
    seed: int = 0,
) -> tuple[float, float]:
    """(mean, standard error) of the one-round surviving fraction."""
    rng = random.Random(seed)
    samples = [
        one_round_surviving_fraction(edges, method, rng) for _ in range(rounds)
    ]
    mean = float(np.mean(samples))
    stderr = float(np.std(samples, ddof=1) / math.sqrt(len(samples))) \
        if len(samples) > 1 else 0.0
    return mean, stderr


def theorem1_bound() -> Fraction:
    """The Section VI bound on gamma: 3/4."""
    return Fraction(3, 4)


def appendix_b_bound() -> Fraction:
    """The full-randomisation bound on gamma: 2/3."""
    return Fraction(2, 3)
