"""Whole-loop differential: Randomised Contraction with and without the
engine's dictionary-encoded columns, against union-find.

The statement-level fuzz (``test_differential_fuzz.py``) cannot see a bug
that only a *sequence* of statements makes: a round's encoded ``graph``
table feeding the next round's GROUP BY, join and DISTINCT, the table-level
dictionary two concurrent statements of the dataflow scheduler share, the
composition joining a column an earlier statement encoded.  So every
randomisation method x variant of the driver runs on a random graph, a
long path, a star and the 3-cycle of ``contraction_theory.py`` — twice: on
a default ``Database()`` (no size gate: these small graphs are encoded from
round 1 like million-edge ones) and on one whose executor never encodes
and sorts every GROUP BY (``whole_column_shortcuts`` off, the Spark
model's setting; not a product switch).  The two labellings must be
bit-identical — values *and* row order — and their partition union-find's.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core import RandomisedContraction
from repro.core.unionfind import unionfind_labels
from repro.graphs import (
    EdgeList,
    gnm_random_graph,
    load_edges_into,
    path_graph,
    star_graph,
)
from repro.sqlengine import Database

GRAPHS = {
    "gnm": lambda: gnm_random_graph(3000, 6000, np.random.default_rng(7)),
    "path": lambda: path_graph(1500),
    "star": lambda: star_graph(400),
    # The tight case of Appendix B (contraction_theory.py), as edges.
    "three-cycle": lambda: EdgeList.from_pairs([(0, 1), (1, 2), (2, 0)]),
}

CONFIGURATIONS = [
    ("finite-fields", "fast"),
    ("finite-fields", "deterministic-space"),
    ("prime-field", "fast"),
    ("prime-field", "deterministic-space"),
    ("encryption", "deterministic-space"),
    ("random-reals", "deterministic-space"),
    ("identity", "fast"),
    ("identity", "deterministic-space"),
]


def _labels(edges: EdgeList, method: str, variant: str, encode: bool,
            **database):
    """(vertices, labels, group_sorts_skipped, sha256 of every table the
    run created — keyed by name and how many of that name came before)."""
    tables: dict[tuple[str, int], str] = {}
    with Database(**database) as db:
        if not encode:
            db._executor.whole_column_shortcuts = False
        execute = db.execute

        def recording_execute(sql: str, label: str = ""):
            result = execute(sql, label=label)
            words = sql.split()
            if words[:2] == ["create", "table"] and words[3] == "as":
                # Same-name tables are created one after another even on
                # the dataflow scheduler, so the count needs no lock.
                nth = sum(1 for name, _ in tables if name == words[2])
                digest = hashlib.sha256()
                for column in db.table(words[2]).columns.values():
                    digest.update(column.values.tobytes())
                tables[words[2], nth] = digest.hexdigest()
            return result

        db.execute = recording_execute
        load_edges_into(db, "edges", edges)
        result = RandomisedContraction(method=method, variant=variant).run(
            db, "edges", seed=11)
        vertices, labels = result.labels(db)
        group_sorts_skipped = db.stats.group_sorts_skipped
    return vertices, labels, group_sorts_skipped, tables


def _partition(vertices, labels) -> list[list[int]]:
    groups: dict[int, list[int]] = {}
    for vertex, label in zip(vertices.tolist(), labels.tolist()):
        groups.setdefault(label, []).append(vertex)
    return sorted(sorted(members) for members in groups.values())


@pytest.mark.parametrize("graph", sorted(GRAPHS))
@pytest.mark.parametrize("method,variant", CONFIGURATIONS)
def test_encoded_loop_labels_equal_plain_loop_and_union_find(
        method, variant, graph):
    if method == "identity" and graph == "path":
        pytest.skip("no randomisation on a path: linear rounds by design")
    edges = GRAPHS[graph]()
    vertices, labels, skipped, _ = _labels(edges, method, variant,
                                           encode=True)
    plain_vertices, plain_labels, _, _ = _labels(edges, method, variant,
                                                 encode=False)
    assert np.array_equal(vertices, plain_vertices)
    assert np.array_equal(labels, plain_labels)
    truth: dict[int, list[int]] = {}
    for vertex, label in unionfind_labels(edges).items():
        truth.setdefault(label, []).append(vertex)
    assert _partition(vertices, labels) == \
        sorted(sorted(members) for members in truth.values())
    if graph == "gnm" and method != "random-reals":
        # The encoded loop was the one under test: its DISTINCTs emitted
        # key order and the next rounds' GROUP BYs found it.  (The table
        # strategy's GROUP BY is fused behind a join and sorts nothing.)
        assert skipped > 1


@pytest.mark.parametrize("variant", ["fast", "deterministic-space"])
@pytest.mark.parametrize("database", [
    {"pool_workers": 1},
    {"pool_workers": 4, "pool_backend": "process"},
    {"use_fusion": False},
    {"use_index_cache": False},
    {"use_physical_plans": False, "use_plan_cache": False},
], ids=lambda options: ",".join(f"{k}={v}" for k, v in options.items()))
def test_encoded_loop_is_bit_identical_on_every_configuration(
        variant, database, monkeypatch):
    """Fan-out, backend and switches decide nothing about which columns
    are encoded, so none of them may move a label — or a row of any table
    a round stores, DISTINCT outputs in key order included."""
    import repro.sqlengine.executor as executor_module

    monkeypatch.setattr(executor_module, "PARALLEL_MIN_ROWS", 1)
    edges = GRAPHS["gnm"]()
    expected = _labels(edges, "finite-fields", variant, encode=True)
    got = _labels(edges, "finite-fields", variant, encode=True, **database)
    assert np.array_equal(got[0], expected[0])
    assert np.array_equal(got[1], expected[1])
    assert len(expected[3]) > 10 and got[3] == expected[3]
