"""Whole-loop differential: every algorithm's full statement sequence on the
engine and on sqlite, table by table, and the labels against union-find.

The statement-level fuzz (``test_differential_fuzz.py``) cannot see a bug
that only a *sequence* of statements makes: a round's encoded ``graph``
table feeding the next round's GROUP BY, join and DISTINCT, the table-level
dictionary a round's statements share, the composition joining a column
an earlier statement encoded.  So every
``SQLConnectedComponents`` subclass — Randomised Contraction in all eight
randomisation method x variant configurations, Hash-to-Min, Two-Phase,
Cracker, BFS and graph squaring — runs on a random graph, a long path, a
star and the 3-cycle of ``contraction_theory.py`` through
:func:`tests.sqlite_oracle.tee`: each statement executes on a default
``Database()`` (no size gate: these small graphs are dictionary-encoded
from round 1 like million-edge ones) *and* on stdlib ``sqlite3``, and every
table a statement writes must hold the same rows on both.  The final
partition must be union-find's.

What an outside engine cannot referee — row order — stays an
engine-vs-engine contract: the loop's stored tables are byte-identical
whatever the database's options.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core import (
    BreadthFirstSearchCC,
    Cracker,
    GraphSquaringCC,
    HashToMin,
    RandomisedContraction,
    TwoPhase,
)
from repro.core.unionfind import unionfind_labels
from repro.graphs import (
    EdgeList,
    gnm_random_graph,
    load_edges_into,
    path_graph,
    star_graph,
)
from repro.sqlengine import Database

from .sqlite_oracle import tee

GRAPHS = {
    "gnm": lambda: gnm_random_graph(3000, 6000, np.random.default_rng(7)),
    "path": lambda: path_graph(1500),
    "star": lambda: star_graph(400),
    # The tight case of Appendix B (contraction_theory.py), as edges.
    "three-cycle": lambda: EdgeList.from_pairs([(0, 1), (1, 2), (2, 0)]),
}

#: The same shapes where the baselines finish in seconds on both engines
#: (Hash-to-Min and BFS are quadratic on a path by design) ...
BASELINE_GRAPHS = dict(
    GRAPHS,
    gnm=lambda: gnm_random_graph(1500, 3000, np.random.default_rng(7)),
    path=lambda: path_graph(400),
)

#: ... and where squaring does: its tables are |V|^2 rows and sqlite has no
#: indexes to join them with.
SQUARING_GRAPHS = dict(
    GRAPHS,
    gnm=lambda: gnm_random_graph(100, 180, np.random.default_rng(7)),
    path=lambda: path_graph(150),
    star=lambda: star_graph(150),
)

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

BASELINES = {
    "hash-to-min": (HashToMin, BASELINE_GRAPHS),
    "two-phase": (TwoPhase, BASELINE_GRAPHS),
    "cracker": (Cracker, BASELINE_GRAPHS),
    "bfs": (BreadthFirstSearchCC, BASELINE_GRAPHS),
    "squaring": (GraphSquaringCC, SQUARING_GRAPHS),
}


def _assert_teed_run_labels_like_union_find(algorithm, edges: EdgeList,
                                            database=Database):
    """Run ``algorithm`` on a fresh ``database()`` with every statement
    teed to sqlite; returns the run's result and its database's
    counters."""
    with tee(database()) as db:
        load_edges_into(db, "edges", edges)
        result = algorithm.run(db, "edges", seed=11)
        vertices, labels = result.labels(db)
        stats = db.stats.snapshot()
        # Every statement that returns rows or leaves a table behind was
        # compared — all but the DROPs.
        assert db.oracle.compared == sum(
            not record.sql.lstrip().lower().startswith("drop")
            for record in db.stats.log) > result.rounds
    groups: dict[int, list[int]] = {}
    for vertex, label in zip(vertices.tolist(), labels.tolist()):
        groups.setdefault(label, []).append(vertex)
    truth: dict[int, list[int]] = {}
    for vertex, label in unionfind_labels(edges).items():
        truth.setdefault(label, []).append(vertex)
    assert sorted(sorted(members) for members in groups.values()) == \
        sorted(sorted(members) for members in truth.values())
    return result, stats


@pytest.mark.parametrize("graph", sorted(GRAPHS))
@pytest.mark.parametrize("method,variant", CONFIGURATIONS)
def test_encoded_loop_labels_equal_plain_loop_and_union_find(
        method, variant, graph):
    """The plain loop — one column form, no index, no fusion — is the one
    sqlite runs beside ours, statement by statement."""
    if method == "identity" and graph == "path":
        pytest.skip("no randomisation on a path: linear rounds by design")
    _, stats = _assert_teed_run_labels_like_union_find(
        RandomisedContraction(method=method, variant=variant),
        GRAPHS[graph]())
    if graph == "gnm" and method != "random-reals":
        # The encoded loop was the one under test: its DISTINCTs emitted
        # key order and the next rounds' GROUP BYs found it.  (The table
        # strategy's one GROUP BY reads a join's output, which has no
        # cached index to prove it sorted.)
        assert stats.group_sorts_skipped > 1


@pytest.mark.parametrize("graph", sorted(GRAPHS))
@pytest.mark.parametrize("name", sorted(BASELINES))
def test_baseline_loop_equals_sqlite_and_union_find(name, graph):
    algorithm, graphs = BASELINES[name]
    _assert_teed_run_labels_like_union_find(algorithm(), graphs[graph]())


def _stored_tables(edges: EdgeList, variant: str, **database):
    """(vertices, labels, sha256 of every table the run created — keyed by
    name and how many of that name came before)."""
    tables: dict[tuple[str, int], str] = {}
    with Database(**database) as db:
        execute = db.execute

        def recording_execute(sql: str, label: str = ""):
            result = execute(sql, label=label)
            words = sql.split()
            if words[:2] == ["create", "table"] and words[3] == "as":
                nth = sum(1 for name, _ in tables if name == words[2])
                digest = hashlib.sha256()
                for column in db.table(words[2]).columns.values():
                    digest.update(column.values.tobytes())
                tables[words[2], nth] = digest.hexdigest()
            return result

        db.execute = recording_execute
        load_edges_into(db, "edges", edges)
        result = RandomisedContraction(variant=variant).run(
            db, "edges", seed=11)
        vertices, labels = result.labels(db)
    return vertices, labels, tables


@pytest.mark.parametrize("variant", ["fast", "deterministic-space"])
@pytest.mark.parametrize("database", [
    {"n_segments": 1},
    {"space_budget_bytes": 1 << 30},
], ids=lambda options: ",".join(f"{k}={v}" for k, v in options.items()))
def test_encoded_loop_is_bit_identical_on_every_configuration(
        variant, database):
    """A database's options — its segment count (motion only) and a space
    budget the run fits in — decide nothing about which columns are
    encoded, so none may move a label — or a row of any table a round
    stores, DISTINCT outputs in key order included."""
    edges = GRAPHS["gnm"]()
    expected = _stored_tables(edges, variant)
    got = _stored_tables(edges, variant, **database)
    assert np.array_equal(got[0], expected[0])
    assert np.array_equal(got[1], expected[1])
    assert len(expected[2]) > 10 and got[2] == expected[2]
