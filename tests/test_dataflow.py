"""The statement-level dataflow scheduler (core/dataflow.py).

Covers the effect-set derivation, hazard ordering (RAW/WAW/WAR), the
inline fallbacks that keep budgeted/serial databases on the serial
schedule, error propagation through the DAG, and the engagement counter.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.dataflow import DataflowScheduler, statement_effects
from repro.sqlengine import Database
from repro.sqlengine.errors import CatalogError


# ---------------------------------------------------------------------------
# effect derivation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("sql,reads,writes", [
    ("select v from edges where v > 0", {"edges"}, set()),
    ("select e.v from edges as e, reps as r where e.v = r.v",
     {"edges", "reps"}, set()),
    ("create table t as select v from edges distributed by (v)",
     {"edges"}, {"t"}),
    ("create table t (v int64)", set(), {"t"}),
    ("insert into t values (1)", set(), {"t"}),
    ("insert into t select v from edges", {"edges"}, {"t"}),
    ("drop table a, b", set(), {"a", "b"}),
    ("alter table old rename to new", set(), {"old", "new"}),
    ("truncate table t", set(), {"t"}),
    ("select s.a from (select v a from edges) as s join reps as r "
     "on (s.a = r.v)", {"edges", "reps"}, set()),
])
def test_statement_effects(sql, reads, writes):
    got_reads, got_writes = statement_effects(sql)
    assert got_reads == frozenset(reads)
    assert got_writes == frozenset(writes)


def test_statement_effects_normalises_case():
    reads, writes = statement_effects("create table T as select v from EDGES")
    assert reads == frozenset({"edges"})
    assert writes == frozenset({"t"})


# ---------------------------------------------------------------------------
# scheduling
# ---------------------------------------------------------------------------


def _db(workers=4, budget=None) -> Database:
    db = Database(n_segments=4, pool_workers=workers,
                  space_budget_bytes=budget)
    db.load_table("base", {"v": np.arange(64, dtype=np.int64)},
                  distributed_by="v")
    return db


def _register_rendezvous(db: Database) -> None:
    """Register ``meet(v)``, an identity UDF that returns only once two
    statements are inside it at the same time (a two-party barrier).  Two
    statements calling it can therefore only both finish if they really
    overlapped — no clock involved; a schedule that ran them one after
    the other breaks the barrier at its timeout and fails the statement."""
    barrier = threading.Barrier(2, timeout=30)

    def meet(values):
        barrier.wait()
        return values

    db.create_function("meet", meet)


def test_hazard_chain_executes_in_order():
    """A RAW/WAW/WAR ladder over one table must serialise: every task sees
    exactly the catalog state the serial schedule would give it."""
    db = _db()
    sched = DataflowScheduler(db)
    assert sched.asynchronous
    sched.submit(["create table a as select v from base where v < 32"])
    sched.submit(["create table b as select v from a where v < 16"])  # RAW
    sched.submit(["drop table a"])                                    # WAR
    sched.submit(["create table a as select v from b"])               # WAW
    task = sched.submit(["select count(*) c from a"])
    assert sched.wait(task)[0].scalar() == 16
    sched.wait_all()
    db.close()


def test_rename_chains_are_ordered():
    """The contraction loop's drop/rename churn: renames write both names,
    so a reader of the new name always waits for the rename."""
    db = _db()
    sched = DataflowScheduler(db)
    sched.submit(["create table t as select v from base where v < 10"])
    sched.submit(["alter table t rename to final"])
    got = sched.wait(sched.submit(["select count(*) c from final"]))
    assert got[0].scalar() == 10
    sched.wait_all()
    db.close()


def test_independent_tasks_overlap_and_are_counted():
    """Two tasks with disjoint table sets run concurrently: a rendezvous
    UDF holds the first task on a worker until the second is inside it
    too, which the dataflow_overlaps counter must record."""
    db = _db()
    _register_rendezvous(db)
    sched = DataflowScheduler(db)
    first = sched.submit(["create table s1 as select meet(v) a from base"])
    second = sched.submit(["create table s2 as select meet(v) b from base"])
    # Each statement leaves the UDF only while the other is inside it.
    assert sched.wait(first)[0].rowcount == 64
    assert sched.wait(second)[0].rowcount == 64
    assert db.stats.dataflow_overlaps >= 1
    sched.wait_all()
    db.close()


def test_inline_without_pool_and_under_budget():
    """A one-worker pool, or a space budget: submission executes the
    statements synchronously in submission order (the serial schedule,
    byte-for-byte, so budget violations stay deterministic)."""
    for db in (_db(workers=1), _db(budget=1 << 30)):
        sched = DataflowScheduler(db)
        assert not sched.asynchronous
        task = sched.submit(["create table t as select v from base",
                             "drop table t"])
        assert task.done.is_set()
        assert len(sched.wait(task)) == 2
        assert "t" not in db.catalog
        assert db.stats.dataflow_overlaps == 0
        sched.wait_all()
        db.close()


def test_budget_violation_raises_at_submit():
    """Inline mode surfaces SpaceBudgetExceeded synchronously, exactly
    like the pre-scheduler serial driver did."""
    from repro.sqlengine.errors import SpaceBudgetExceeded

    db = _db(budget=700)  # base table (512B values) fits, one copy does not
    sched = DataflowScheduler(db)
    with pytest.raises(SpaceBudgetExceeded):
        sched.submit(["create table copy1 as select v from base"])
    db.close()


# ---------------------------------------------------------------------------
# cached effect sets: warm loops derive effects from plan-cache templates
# ---------------------------------------------------------------------------


def test_template_effects_match_fresh_parse():
    """Template-derived effect sets must agree exactly with a fresh parse
    for every statement shape the RC drivers schedule."""
    db = _db()
    sched = DataflowScheduler(db)
    statements = [
        "create table reps7 as select v a from base distributed by (a)",
        "create table g2 as select b.v from base as b, base as c "
        "where b.v = c.v",
        "insert into g2 select v from base",
        "insert into g2 values (41)",
        "drop table reps7, g2",
        "alter table base rename to base2",
        "truncate table base2",
        "select count(*) c from base",
    ]
    for sql in statements:
        assert sched._template_effects_for(sql) == statement_effects(sql), sql
    db.close()


def test_warm_loop_effects_skip_scheduler_parses(monkeypatch):
    """Round N>1 of a templated statement loop derives its effect sets
    without a single scheduler-side parse, counted as effects_cache_hits
    (round 1 builds the shared plan-cache template; later rounds only pay
    the normalisation regex plus the marker substitution)."""
    import repro.core.dataflow as dataflow_module

    db = _db()
    sched = DataflowScheduler(db)
    parses = {"n": 0}
    original = dataflow_module.parse_statement

    def counting(sql):
        parses["n"] += 1
        return original(sql)

    monkeypatch.setattr(dataflow_module, "parse_statement", counting)
    before = db.stats.snapshot().effects_cache_hits
    for round_no in range(1, 6):
        task = sched.submit([
            f"create table r{round_no} as select v from base "
            f"where v < {8 * round_no} distributed by (v)"])
        sched.wait(task)
    sched.wait_all()
    assert parses["n"] == 0  # never fell back to statement_effects
    hits = db.stats.snapshot().effects_cache_hits - before
    assert hits >= 4  # every warm round after the first is a hit
    db.close()


def test_repeated_statement_text_hits_the_memo():
    """Byte-identical statement texts (the fixed drops/renames of the
    round loop) hit the per-scheduler memo without even normalising."""
    db = _db()
    sched = DataflowScheduler(db)
    before = db.stats.snapshot().effects_cache_hits
    for i in range(3):
        sched.wait(sched.submit(["create table fix as select v from base",
                                 "drop table fix"]))
    sched.wait_all()
    assert db.stats.snapshot().effects_cache_hits - before >= 4
    db.close()


# ---------------------------------------------------------------------------
# error propagation
# ---------------------------------------------------------------------------


def test_failed_task_poisons_dependents_and_submit():
    """A failing statement group must (a) re-raise at wait(), (b) prevent
    its dependents from running on the broken catalog, and (c) refuse
    further submissions.

    The failing group is queued behind a predecessor that blocks inside a
    UDF until the whole chain is submitted, so neither the failure nor
    the dependent can run early — no outcome depends on thread timing.
    """
    db = _db()
    release = threading.Event()
    released_in_time = []

    def gate(values):
        released_in_time.append(release.wait(timeout=60))
        return values

    db.create_function("gate", gate)
    sched = DataflowScheduler(db)
    assert sched.asynchronous
    try:
        sched.submit(["create table gated as select gate(v) v from base"])
        bad = sched.submit([
            "select count(*) c from gated",           # RAW on the gate
            "create table x as select v from missing_table",
        ])
        dependent = sched.submit(["select count(*) c from x"])
        # Nothing past the gate has started: the failure is still ahead.
        assert not bad.started and not dependent.started
    finally:
        release.set()
    with pytest.raises(CatalogError):
        sched.wait(bad)
    assert released_in_time == [True]
    assert len(bad.results) == 1  # failed at its second statement
    with pytest.raises(CatalogError):
        sched.wait(dependent)
    assert dependent.results == []  # poisoned, never executed
    with pytest.raises(CatalogError):
        sched.submit(["select v from base"])
    sched.drain()  # idempotent on a failed schedule
    db.close()


def test_wait_all_raises_first_error():
    db = _db()
    sched = DataflowScheduler(db)
    sched.submit(["create table ok as select v from base"])
    sched.submit(["drop table missing"])
    with pytest.raises(CatalogError):
        sched.wait_all()
    db.close()


def test_two_worker_pool_overlaps_via_driver_help():
    """On a two-worker pool the running cap leaves one pool slot, so the
    waiting driver thread must execute queued ready tasks itself — the
    reported overlap has to be real concurrency, not a queue entry."""
    db = Database(n_segments=2, pool_workers=2)
    assert db.pool.n_workers == 2
    db.load_table("base", {"v": np.arange(64, dtype=np.int64)},
                  distributed_by="v")
    _register_rendezvous(db)
    sched = DataflowScheduler(db)
    first = sched.submit(["create table s1 as select meet(v) a from base"])
    second = sched.submit(["create table s2 as select meet(v) b from base"])
    # One pool slot plus the helping driver: the barrier only opens if
    # both statements run concurrently.
    assert sched.wait(second)[0].rowcount == 64
    assert sched.wait(first)[0].rowcount == 64
    assert db.stats.dataflow_overlaps >= 1
    sched.wait_all()
    db.close()


def test_many_independent_tasks_respect_worker_cap():
    """More independent tasks than workers: all finish, results intact
    (the ready queue drains as workers free up; no pool deadlock)."""
    db = _db()
    sched = DataflowScheduler(db)
    tasks = [
        sched.submit([f"create table m{i} as select v from base "
                      f"where v < {i + 1}"])
        for i in range(12)
    ]
    for i, task in enumerate(tasks):
        assert sched.wait(task)[0].rowcount == i + 1
    sched.wait_all()
    db.close()
