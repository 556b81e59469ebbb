"""MPP simulation and statistics accounting tests — Tables IV/V substrate."""

import dataclasses
import os
import threading

import numpy as np
import pytest

from repro.sqlengine import Column, Database, SpaceBudgetExceeded
from repro.sqlengine.mpp import Cluster, hash64


def load_big(db, name, n=20_000, distributed_by="v"):
    db.load_table(
        name,
        {"v": np.arange(n, dtype=np.int64), "w": np.arange(n, dtype=np.int64) + 1},
        distributed_by=distributed_by,
    )


def test_hash64_is_deterministic_and_mixing():
    values = np.arange(1000, dtype=np.int64)
    h1 = hash64(values)
    h2 = hash64(values)
    assert np.array_equal(h1, h2)
    # Consecutive inputs should land all over the 64-bit space.
    assert len(set((h1 % np.uint64(16)).tolist())) == 16


def test_cluster_skew_of_distinct_keys_is_balanced():
    cluster = Cluster(n_segments=8)
    column = Column.from_values(np.arange(80_000, dtype=np.int64))
    skew = cluster.skew(column)
    assert skew < 1.05


def test_cluster_segment_of_colocates_equal_keys():
    """Hash distribution: every row gets a segment, every segment gets
    rows, and equal keys land on the same one."""
    values = np.random.default_rng(0).integers(-(2 ** 60), 2 ** 60, 5000)
    values[2500:] = values[:2500]  # every key appears twice
    segments = Cluster(n_segments=4).segment_of(Column.from_values(values))
    assert segments.shape == values.shape
    assert set(np.unique(segments).tolist()) == {0, 1, 2, 3}
    assert np.array_equal(segments[:2500], segments[2500:])
    assert np.array_equal(segments, (hash64(values) % np.uint64(4)).astype(
        np.int64))


def test_skew_of_constant_column_is_maximal():
    cluster = Cluster(n_segments=4)
    column = Column.from_values(np.zeros(1000, dtype=np.int64))
    assert cluster.skew(column) == pytest.approx(4.0)


def test_single_segment_cluster_never_moves_data():
    cluster = Cluster(n_segments=1)
    plan = cluster.plan_motion(10_000, 10_000, colocated=False)
    assert plan.kind == "colocated" and plan.moved_bytes == 0


def test_plan_motion_rules():
    cluster = Cluster(n_segments=4, broadcast_row_limit=100)
    assert cluster.plan_motion(800, 50, colocated=False).kind == "broadcast"
    assert cluster.plan_motion(800, 50, colocated=False).moved_bytes == 3200
    assert cluster.plan_motion(9999, 5000, colocated=False).kind == "redistribute"
    assert cluster.plan_motion(9999, 5000, colocated=True).kind == "colocated"


def test_colocated_join_charges_no_motion():
    db = Database(n_segments=4)
    load_big(db, "a", distributed_by="v")
    load_big(db, "b", distributed_by="v")
    before = db.stats.motion_bytes
    db.execute("select a.w from a, b where a.v = b.v")
    assert db.stats.motion_bytes == before


def test_mismatched_join_charges_motion():
    db = Database(n_segments=4)
    load_big(db, "a", distributed_by="v")
    load_big(db, "b", distributed_by="w")  # joined on v -> must move
    before = db.stats.motion_bytes
    db.execute("select a.w from a, b where a.v = b.v")
    assert db.stats.motion_bytes > before


def test_small_table_broadcasts():
    db = Database(n_segments=4, broadcast_row_limit=4096)
    load_big(db, "a", distributed_by="v")
    db.load_table("tiny", {"v": np.arange(10, dtype=np.int64),
                           "x": np.arange(10, dtype=np.int64)},
                  distributed_by="x")
    db.execute("select a.w from a, tiny where a.v = tiny.v")
    assert db.stats.broadcast_bytes > 0


def test_group_by_on_distribution_key_is_colocated():
    db = Database(n_segments=4)
    load_big(db, "a", distributed_by="v")
    before = db.stats.motion_bytes
    db.execute("select v, count(*) from a group by v")
    assert db.stats.motion_bytes == before


def test_group_by_on_other_key_moves_data():
    db = Database(n_segments=4)
    load_big(db, "a", distributed_by="v")
    before = db.stats.motion_bytes
    db.execute("select w, count(*) from a group by w")
    assert db.stats.motion_bytes > before


def test_create_distributed_by_other_column_redistributes():
    db = Database(n_segments=4)
    load_big(db, "a", distributed_by="v")
    before = db.stats.motion_bytes
    db.execute("create table b as select v, w from a distributed by (w)")
    assert db.stats.motion_bytes > before


def test_bytes_written_accumulates_and_live_tracks_drops():
    db = Database()
    load_big(db, "a", n=1000)
    created = db.stats.bytes_written
    assert created == db.stats.live_bytes > 0
    db.execute("create table b as select v, w from a")
    assert db.stats.bytes_written > created
    live_before_drop = db.stats.live_bytes
    db.execute("drop table b")
    assert db.stats.live_bytes < live_before_drop
    # Written never decreases on drops (Table V semantics).
    assert db.stats.bytes_written > created


def test_peak_live_bytes_tracks_high_water_mark():
    db = Database()
    load_big(db, "a", n=1000)
    db.execute("create table b as select v, w from a")
    peak = db.stats.peak_live_bytes
    db.execute("drop table b")
    assert db.stats.peak_live_bytes == peak
    assert db.stats.live_bytes < peak


def test_reset_peak():
    db = Database()
    load_big(db, "a", n=1000)
    db.execute("create table b as select v, w from a")
    db.execute("drop table b")
    db.stats.reset_peak()
    assert db.stats.peak_live_bytes == db.stats.live_bytes


def test_space_budget_enforced():
    db = Database(space_budget_bytes=10_000)
    with pytest.raises(SpaceBudgetExceeded):
        load_big(db, "a", n=5000)


def test_space_budget_allows_within_limit():
    db = Database(space_budget_bytes=1_000_000)
    load_big(db, "a", n=1000)


def test_query_log_records_statements():
    db = Database()
    load_big(db, "a", n=100)
    db.execute("select count(*) from a", label="my-count")
    last = db.stats.log[-1]
    assert last.label == "my-count"
    assert last.rows == 1
    assert last.elapsed_seconds >= 0


def test_query_counter_increments():
    db = Database()
    db.execute("create table t (a int)")
    before = db.stats.queries
    db.execute("insert into t values (1)")
    db.execute("select a from t")
    assert db.stats.queries == before + 2


def test_snapshot_delta():
    db = Database()
    load_big(db, "a", n=500)
    before = db.stats.snapshot()
    db.execute("create table b as select v, w from a")
    delta = db.stats.snapshot().delta(before)
    assert delta.queries == 1
    assert delta.bytes_written == db.table("b").byte_size()


def test_database_close_is_idempotent_and_execute_after_close_works():
    """Pins the ``close()`` contract: it releases nothing — the engine
    holds no thread — so a double close is a no-op and the database runs
    its joins afterwards as before."""
    db = Database(n_segments=4)
    db._executor._stored_index = lambda frame, name: None
    rng = np.random.default_rng(1)
    n = 3000
    db.load_table("e", {"v1": rng.integers(0, 100, n),
                        "v2": rng.integers(0, 100, n)})
    db.load_table("r", {"v": np.arange(100, dtype=np.int64),
                        "rep": rng.integers(0, 100, 100)})
    query = "select e.v1, r.rep from e, r where e.v1 = r.v"
    expected = db.execute(query).rows()
    threads = threading.enumerate()
    db.close()
    db.close()
    assert db.execute(query).rows() == expected
    with db:
        assert db.execute(query).rows() == expected
    assert threading.enumerate() == threads


def test_retired_segment_pool_is_an_inert_shell(monkeypatch):
    """``Database.pool`` and ``mpp.SegmentPool`` survive only for the
    benchmark's probes: one worker whatever the segment count or the
    host's cores, a no-op ``shutdown``, nothing to run work on; and no
    constructor argument sets a thread count."""
    from repro.sqlengine.mpp import SegmentPool

    monkeypatch.setattr(os, "cpu_count", lambda: 16)
    for n_segments in (1, 4, 7):
        pool = Database(n_segments=n_segments).pool
        assert (pool.n_segments, pool.n_workers) == (n_segments, 1)
    pool = SegmentPool(4)
    pool.shutdown()
    pool.shutdown()
    assert pool.n_workers == 1 and not hasattr(pool, "map")
    with pytest.raises(TypeError):
        SegmentPool(4, max_workers=4)
    with pytest.raises(TypeError):
        Database(n_segments=4, pool_workers=1)


def test_close_of_a_fresh_database_is_safe():
    """Closing a database, twice, before it ran anything leaves it
    usable."""
    db = Database(n_segments=2)
    db.close()
    db.close()
    db.execute("create table t (v int64)")
    db.execute("insert into t values (1)")
    assert db.execute("select count(*) from t").scalar() == 1


def test_stats_deltas_do_not_depend_on_the_segment_count():
    """Per-statement counter deltas of a four-segment database equal a
    one-segment database's **exactly**, apart from data motion, which a
    single segment never needs.  Exercised over a warm RC-style round
    loop (repeated join / group-by / scalar-count templates), so deltas
    land on cold and warm paths alike."""
    motion = {"motion_bytes", "broadcast_bytes"}
    rng = np.random.default_rng(31)
    n = 3000
    v1 = rng.integers(0, 120, n)
    v2 = rng.integers(0, 120, n)
    rep = rng.integers(0, 120, 120)

    def build(n_segments):
        db = Database(n_segments=n_segments)
        db._executor._stored_index = lambda frame, name: None
        db.load_table("e", {"v1": v1, "v2": v2})
        db.load_table("r", {"v": np.arange(120, dtype=np.int64),
                            "rep": rep})
        return db

    statements = []
    for round_no in range(3):  # warm loop: same templates, three rounds
        statements += [
            "select e.v1, r.rep from e, r where e.v1 = r.v",
            "select e.v1, count(*) c, min(e.v2) lo, sum(e.v2) s "
            "from e group by e.v1",
            "select count(*) from e",
            f"create table t{round_no} as "
            "select e.v2, r.rep from e, r where e.v2 = r.v",
            f"drop table t{round_no}",
        ]
    single, four = build(1), build(4)
    for sql in statements:
        before_1 = single.stats.snapshot()
        before_4 = four.stats.snapshot()
        single.execute(sql)
        four.execute(sql)
        delta_1 = single.stats.snapshot().delta(before_1)
        delta_4 = four.stats.snapshot().delta(before_4)
        for field in dataclasses.fields(delta_1):
            if field.name in motion:
                continue
            assert getattr(delta_4, field.name) == \
                getattr(delta_1, field.name), (sql, field.name)
        assert single.stats.log[-1].bytes_written == \
            four.stats.log[-1].bytes_written
        assert single.stats.log[-1].motion_bytes == 0
    assert single.stats.motion_bytes == 0 < four.stats.motion_bytes


def test_bump_rejects_unknown_counters():
    db = Database()
    db.stats.bump("group_sorts_skipped", 3)
    assert db.stats.group_sorts_skipped == 3
    with pytest.raises(ValueError, match="unknown counter"):
        db.stats.bump("not_a_counter")


def test_rows_written_counts_inserts():
    db = Database()
    db.execute("create table t (a int)")
    before = db.stats.rows_written
    db.execute("insert into t values (1), (2), (3)")
    assert db.stats.rows_written == before + 3


# ---------------------------------------------------------------------------
# the counter declaration and the places derived from / checked against it
# ---------------------------------------------------------------------------


def test_snapshot_and_accumulator_are_derived_from_the_declaration():
    from repro.sqlengine.stats import COUNTERS, GAUGES, StatsSnapshot

    assert GAUGES <= set(COUNTERS) and len(set(COUNTERS)) == len(COUNTERS)
    assert [f.name for f in dataclasses.fields(StatsSnapshot)] == list(COUNTERS)
    db = Database()
    stats = db.stats
    for value, name in enumerate(COUNTERS, start=1):
        setattr(stats, name, value)
    later = stats.snapshot()
    assert dataclasses.astuple(later) == tuple(range(1, len(COUNTERS) + 1))
    delta = later.delta(StatsSnapshot(**{name: 1 for name in COUNTERS}))
    for value, name in enumerate(COUNTERS, start=1):
        # Gauges keep the later level; counters subtract.
        assert getattr(delta, name) == (value if name in GAUGES else value - 1)


def test_reset_zeroes_in_place_and_keeps_live_space():
    from repro.sqlengine.stats import COUNTERS

    db = Database()
    load_big(db, "t")
    db.execute("create table u as select v from t")
    db.execute("drop table u")
    stats = db.stats
    log, live = stats.log, stats.live_bytes
    assert live > 0 and stats.peak_live_bytes > live and stats.log
    db.reset_stats()
    assert db.stats is stats and stats.log is log
    assert stats.live_bytes == stats.peak_live_bytes == live
    assert list(stats.log) == []
    assert all(getattr(stats, name) == 0 for name in COUNTERS
               if name not in ("live_bytes", "peak_live_bytes"))


def test_query_log_is_bounded_for_long_lived_databases(monkeypatch):
    """The log keeps the latest ``LOG_MAXLEN`` records: a database that
    outlives many runs stops growing it, ``reset()`` empties it, and the
    newest record is still ``log[-1]``."""
    from repro.sqlengine import stats as stats_module

    monkeypatch.setattr(stats_module, "LOG_MAXLEN", 8)
    db = Database()
    db.execute("create table t (a int)")
    for i in range(20):
        db.execute(f"insert into t values ({i})", label=f"insert-{i}")
    log = db.stats.log
    assert len(log) == 8
    assert [record.label for record in log] == [
        f"insert-{i}" for i in range(12, 20)]
    assert db.stats.queries == 21
    db.reset_stats()
    assert len(db.stats.log) == 0
    db.execute("select count(*) from t", label="count")
    assert db.stats.log[-1].label == "count" and db.stats.log[-1].rows == 1


def test_every_declared_counter_is_in_the_readme_table_and_cli_footer():
    """The two hand-written lists cannot drift from the declared one.
    Retired counters are declared only for the benchmark's probes and
    belong in neither."""
    from repro.cli import render_engine_stats
    from repro.sqlengine.stats import COUNTERS, RETIRED

    class Recording:
        def __init__(self):
            self.read = set()

        def __getattr__(self, name):
            self.read.add(name)
            return 1

    live = set(COUNTERS) - RETIRED
    recording = Recording()
    render_engine_stats(recording)
    assert live - recording.read == set()
    assert recording.read & RETIRED == set()

    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as handle:
        text = handle.read()
    table = text[text.index("### EngineStats counters"):]
    first_cells = [line.split("|")[1] for line in table.splitlines()
                   if line.startswith("| `")]
    documented = {name.strip(" `") for cell in first_cells
                  for name in cell.split(",")}
    assert live - documented == set()
    assert documented & RETIRED == set()
