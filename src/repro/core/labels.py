"""Validation of connected-component labellings.

Section III: "A correct output of the algorithm is one where any two
vertices share the same r value if and only if they belong to the same
connected component" — labels need not be vertex IDs (Randomised
Contraction's relabelling optimisation produces arbitrary field elements),
only consistent.  :func:`validate_labelling` checks exactly that, without
assuming anything about label values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graphs.edgelist import EdgeList, sorted_unique
from .unionfind import ground_truth_labels


@dataclass
class ValidationReport:
    """The outcome of a labelling check."""

    valid: bool
    reason: str
    n_vertices: int
    n_components_expected: int
    n_labels_found: int


def validate_labelling(
    edges: EdgeList, vertices: np.ndarray, labels: np.ndarray
) -> ValidationReport:
    """Check a labelling against ground truth.

    The check exploits a standard argument: if (a) every vertex is labelled
    exactly once, (b) the two endpoints of every edge share a label, and
    (c) the number of distinct labels equals the true component count, then
    the labelling *is* the component partition — (b) makes each label class
    a union of components, and (c) forces the union to be trivial.
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    labels = np.asarray(labels)
    expected_vertices, truth = ground_truth_labels(edges)
    n = expected_vertices.shape[0]

    if vertices.shape[0] != labels.shape[0]:
        return ValidationReport(False, "vertices/labels length mismatch", n, 0, 0)
    order = np.argsort(vertices, kind="stable")
    sorted_vertices = vertices[order]
    sorted_labels = labels[order]
    if sorted_vertices.shape[0] != n or not np.array_equal(sorted_vertices,
                                                           expected_vertices):
        return ValidationReport(
            False,
            "labelled vertex set differs from the graph's vertex set",
            n,
            0,
            0,
        )

    # (b) endpoints agree.
    src_pos = np.searchsorted(sorted_vertices, edges.src)
    dst_pos = np.searchsorted(sorted_vertices, edges.dst)
    if not np.array_equal(sorted_labels[src_pos], sorted_labels[dst_pos]):
        bad = int(np.flatnonzero(
            sorted_labels[src_pos] != sorted_labels[dst_pos]
        ).shape[0])
        return ValidationReport(
            False, f"{bad} edge(s) connect differently-labelled vertices", n, 0, 0
        )

    n_expected = int(sorted_unique(truth).shape[0]) if n else 0
    n_found = int(sorted_unique(labels).shape[0]) if n else 0
    if n_found != n_expected:
        return ValidationReport(
            False,
            f"found {n_found} distinct labels, expected {n_expected} components",
            n,
            n_expected,
            n_found,
        )
    return ValidationReport(True, "ok", n, n_expected, n_found)


def assert_valid_labelling(
    edges: EdgeList, vertices: np.ndarray, labels: np.ndarray
) -> None:
    """Raise AssertionError with a readable reason if the labelling is bad."""
    report = validate_labelling(edges, vertices, labels)
    if not report.valid:
        raise AssertionError(f"invalid component labelling: {report.reason}")
