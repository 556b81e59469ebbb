"""Failures in the middle of a connected-components loop.

Each algorithm is stopped in round k >= 2 — by a space-budget trip, or by
an exception from a kernel — and must then:

* surface exactly one exception, of the type raised;
* leave no ``cc*`` temporary table behind;
* leave the ``Database`` usable: the same instance then completes a clean
  run whose labelling matches union-find.

RC's deterministic-space kernel fault lands in round 2's composition, the
last statement of the round, after the contraction has already replaced
the edge table: it is raised on the calling thread, straight from
``db.execute``, and the cleanup still has the label table and the
round's representatives to drop.
"""

import numpy as np
import pytest

from repro.core import RandomisedContraction, TwoPhase
from repro.core.labels import validate_labelling
from repro.ff.gf2_64 import Gf2AffineMap
from repro.graphs import gnm_random_graph, load_edges_into
from repro.sqlengine import Database
from repro.sqlengine import executor as executor_module
from repro.sqlengine.errors import SpaceBudgetExceeded

EDGES = gnm_random_graph(600, 1200, np.random.default_rng(23))


class InjectedFault(RuntimeError):
    """The error a patched kernel raises."""


#: name -> (algorithm, label suffixes of the statements that open and
#: close a round, the kernel a fault is injected into, its call that falls
#: in round 2).  RC evaluates its GF(2^64) map twice per ``reps``
#: statement and once per composition; Two-Phase calls no field kernel,
#: so its fault comes from the GROUP BY reducer (one call per star step,
#: two per round).
ALGORITHMS = {
    "rc-fast": (RandomisedContraction(), ":reps", ":contract",
                (Gf2AffineMap, "apply"), 3),
    "rc-deterministic-space": (
        RandomisedContraction(variant="deterministic-space"), ":reps",
        ":contract", (Gf2AffineMap, "apply"), 5),
    "two-phase": (TwoPhase(), ":large-min", ":small-star",
                  (executor_module, "_reduce_slice"), 3),
}


def _raise_on_call(monkeypatch, owner, name, k) -> None:
    """Make ``owner.name`` raise :class:`InjectedFault` on its k-th call."""
    real = getattr(owner, name)
    calls = []

    def faulty(*args, **kwargs):
        calls.append(None)
        if len(calls) == k:
            raise InjectedFault(f"{name} call {k}")
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, faulty)


def _trip_budget_at(db, label_suffix, k) -> list:
    """Set the space budget to the live size as the k-th statement
    labelled ``*label_suffix`` starts, so the table it creates trips it;
    returns those statements' labels."""
    execute = db.execute
    opened = []

    def budgeted_execute(sql, label=""):
        if label.endswith(label_suffix):
            opened.append(label)
            if len(opened) == k:
                db.stats.space_budget_bytes = db.stats.live_bytes
        return execute(sql, label=label)

    db.execute = budgeted_execute
    return opened


def _assert_recovers(db, algorithm):
    assert not [name for name in db.table_names() if name.startswith("cc")]
    result = algorithm.run(db, "edges", seed=9)
    report = validate_labelling(EDGES, *result.labels(db))
    assert report.valid, report.reason


def _closed_rounds(db, closing) -> int:
    return sum(record.label.endswith(closing) for record in db.stats.log)


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_space_budget_trip_mid_loop(name):
    algorithm, opening, closing, _, _ = ALGORITHMS[name]
    with Database() as db:
        load_edges_into(db, "edges", EDGES)
        opened = _trip_budget_at(db, opening, 2)
        with pytest.raises(SpaceBudgetExceeded):
            algorithm.run(db, "edges", seed=9)
        assert len(opened) == 2 and _closed_rounds(db, closing) == 1
        del db.execute
        db.stats.space_budget_bytes = None
        _assert_recovers(db, algorithm)


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_kernel_error_mid_loop(name, monkeypatch):
    algorithm, _, closing, (owner, kernel), k = ALGORITHMS[name]
    with Database() as db:
        load_edges_into(db, "edges", EDGES)
        _raise_on_call(monkeypatch, owner, kernel, k)
        with pytest.raises(InjectedFault):
            algorithm.run(db, "edges", seed=9)
        assert _closed_rounds(db, closing) >= 1
        monkeypatch.undo()
        _assert_recovers(db, algorithm)
