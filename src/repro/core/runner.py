"""The one-call public API: run any algorithm on an edge list.

Wraps database creation, dataset loading, algorithm execution, result
extraction and (optionally) validation into a single call::

    from repro import connected_components
    from repro.graphs import path_graph

    result = connected_components(path_graph(1000), algorithm="rc", seed=7)
    result.labels_by_vertex  # {vertex_id: component_label}
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..graphs.edgelist import EdgeList, sorted_unique
from ..graphs.io import load_edges_into
from ..sqlengine import Database
from .base import CCRunResult, SQLConnectedComponents
from .bfs import BreadthFirstSearchCC
from .cracker import Cracker
from .hash_to_min import HashToMin
from .labels import ValidationReport, validate_labelling
from .randomised_contraction import RandomisedContraction
from .squaring import GraphSquaringCC
from .two_phase import TwoPhase

#: Algorithm registry: name -> zero-argument factory.  Short aliases match
#: the column heads of the paper's Table III (RC, HM, TP, CR).
ALGORITHMS: dict[str, Callable[[], SQLConnectedComponents]] = {
    "randomised-contraction": RandomisedContraction,
    "rc": RandomisedContraction,
    "hash-to-min": HashToMin,
    "hm": HashToMin,
    "two-phase": TwoPhase,
    "tp": TwoPhase,
    "cracker": Cracker,
    "cr": Cracker,
    "breadth-first-search": BreadthFirstSearchCC,
    "bfs": BreadthFirstSearchCC,
    "graph-squaring": GraphSquaringCC,
    "squaring": GraphSquaringCC,
}


def make_algorithm(name_or_instance) -> SQLConnectedComponents:
    """Resolve an algorithm name (or pass an instance through)."""
    if isinstance(name_or_instance, SQLConnectedComponents):
        return name_or_instance
    try:
        factory = ALGORITHMS[str(name_or_instance).lower()]
    except KeyError:
        known = ", ".join(sorted(set(ALGORITHMS)))
        raise KeyError(f"unknown algorithm {name_or_instance!r}; known: {known}")
    return factory()


@dataclass
class CCResult:
    """Connected-components output plus run metrics."""

    vertices: np.ndarray
    labels: np.ndarray
    run: CCRunResult
    validation: Optional[ValidationReport] = None

    @property
    def labels_by_vertex(self) -> dict[int, int]:
        """{vertex_id: component_label} (materialised; small graphs)."""
        return dict(zip(self.vertices.tolist(), self.labels.tolist()))

    @property
    def n_components(self) -> int:
        if self.labels.shape[0] == 0:
            return 0
        return int(sorted_unique(self.labels).shape[0])

    def components(self) -> dict[int, list[int]]:
        """{component_label: sorted vertex list}."""
        groups: dict[int, list[int]] = {}
        for vertex, label in zip(self.vertices.tolist(), self.labels.tolist()):
            groups.setdefault(label, []).append(vertex)
        for members in groups.values():
            members.sort()
        return groups


def connected_components(
    edges: EdgeList,
    algorithm: str | SQLConnectedComponents = "randomised-contraction",
    seed: Optional[int] = None,
    db: Optional[Database] = None,
    n_segments: int = 4,
    space_budget_bytes: Optional[int] = None,
    validate: bool = False,
) -> CCResult:
    """Compute connected components of an edge list in-database.

    Parameters
    ----------
    edges:
        The input graph (isolated vertices may appear as loop edges).
    algorithm:
        Registry name (``"rc"``, ``"hm"``, ``"tp"``, ``"cr"``, ``"bfs"``,
        ``"squaring"``) or a configured algorithm instance, e.g.
        ``RandomisedContraction(method="encryption",
        variant="deterministic-space")``.
    db:
        Reuse an existing database (the edge table is created inside it);
        by default a fresh one is created.
    validate:
        Also check the output against the union-find ground truth and
        attach the :class:`ValidationReport`.
    """
    algo = make_algorithm(algorithm)
    if db is None:
        db = Database(n_segments=n_segments, space_budget_bytes=space_budget_bytes)
    table = "ccinput"
    db.drop_table(table, if_exists=True)
    db.drop_table("ccresult", if_exists=True)
    load_edges_into(db, table, edges)
    run = algo.run(db, table, result_table="ccresult", seed=seed)
    vertices, labels = run.labels(db)
    validation = None
    if validate:
        validation = validate_labelling(edges, vertices, labels)
        if not validation.valid:
            raise AssertionError(
                f"{algo.name} produced an invalid labelling: {validation.reason}"
            )
    return CCResult(vertices=vertices, labels=labels, run=run, validation=validation)
