"""Every round's ``reps`` table against its array form.

Union-find checks only a run's final partition, so a contraction that
picks the wrong representative — a ``least`` that drops ``h(v1)``, say —
can still label every component correctly while it silently changes
Theorem 1's shrink, Table I's round counts and Table IV's space.  This
test holds each round's ``reps`` table, row for row in key order, to the
numpy array form of Figures 3 and 4's statement

    select v1 v, least(h(v1), min(h(v2))) rep from graph group by v1

with the round's own :class:`~repro.ff.permutation.PointwiseRound`: h over
the edge table's vertex dictionary, ``np.minimum.at`` of ``h(v2)`` over
the ``v1`` codes, then ``np.minimum`` with ``h(v1)``.  From round 2 on the
statement's key arrives sorted and the engine reduces it in place; round
1's is reduced by direct addressing.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.core import RandomisedContraction
from repro.graphs import gnm_random_graph, load_edges_into, path_graph
from repro.sqlengine import Database


def reps_array_form(h, v1: np.ndarray, v2: np.ndarray):
    """``(v, rep)`` of one round, ``v`` ascending: every vertex with an
    edge and the least of h over it and its neighbours."""
    vertices, codes = np.unique(np.concatenate([v1, v2]),
                                return_inverse=True)
    hashed = h.apply(vertices).view(np.int64)  # SQL compares them signed
    sources, targets = codes[:v1.shape[0]], codes[v1.shape[0]:]
    least = np.full(vertices.shape[0], np.iinfo(np.int64).max)
    np.minimum.at(least, sources, hashed[targets])
    keys = np.unique(sources)
    return vertices[keys], np.minimum(least[keys], hashed[keys])


def check_reps_rounds(monkeypatch, algorithm, db) -> list:
    """Hold each ``reps`` statement the algorithm runs on ``db`` to the
    array form of its round's h and the edge table it read, as it is
    written; returns the rounds checked, by number."""
    checked: list = []
    drawn: list = []
    new_round = algorithm.method.new_round

    def drawing(rng):
        drawn.append(new_round(rng))
        return drawn[-1]

    execute = db.execute

    def executing(sql, label=""):
        if not label.endswith(":reps"):
            return execute(sql, label)
        source = re.search(r"from (\w+)\s+group by v1", sql).group(1)
        target = re.search(r"create table (\w+) as", sql).group(1)
        edges = db.table(source)
        v, rep = reps_array_form(drawn[-1], edges.column("v1").values,
                                 edges.column("v2").values)
        result = execute(sql, label)
        reps = db.table(target)
        checked.append(len(drawn))
        assert np.array_equal(reps.column("v").values, v), checked
        assert np.array_equal(reps.column("rep").values, rep), checked
        return result

    monkeypatch.setattr(algorithm.method, "new_round", drawing)
    monkeypatch.setattr(db, "execute", executing)
    return checked


GRAPHS = {
    "gnm": lambda: gnm_random_graph(3000, 5000, np.random.default_rng(7)),
    "path": lambda: path_graph(600),
}


@pytest.mark.parametrize("graph", sorted(GRAPHS))
@pytest.mark.parametrize("variant", ["fast", "deterministic-space"])
def test_every_rounds_reps_is_its_array_form(variant, graph, monkeypatch):
    algorithm = RandomisedContraction(variant=variant)
    db = Database(n_segments=4)
    load_edges_into(db, "edges", GRAPHS[graph]())
    checked = check_reps_rounds(monkeypatch, algorithm, db)
    result = algorithm.run(db, "edges", seed=11)
    assert checked == list(range(1, result.rounds + 1))
    assert result.rounds >= 3
    # Every round from the second groups a key that arrives sorted.
    assert db.stats.group_sorts_skipped >= result.rounds - 1
