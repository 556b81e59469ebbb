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
    """Pins the ``close()`` contract: double-close is a no-op, and the pool
    genuinely re-creates its worker threads on the next parallel kernel."""
    import repro.sqlengine.executor as executor_module
    from repro.sqlengine.mpp import SegmentPool

    db = Database(n_segments=4, pool_workers=4)
    db._executor.use_index_cache = False
    rng = np.random.default_rng(1)
    n = 3000
    db.load_table("e", {"v1": rng.integers(0, 100, n),
                        "v2": rng.integers(0, 100, n)})
    db.load_table("r", {"v": np.arange(100, dtype=np.int64),
                        "rep": rng.integers(0, 100, 100)})
    query = "select e.v1, r.rep from e, r where e.v1 = r.v"
    original = executor_module.PARALLEL_MIN_ROWS
    executor_module.PARALLEL_MIN_ROWS = 1
    try:
        expected = sorted(db.execute(query).rows())
        assert db.pool._pool is not None  # workers were spawned
        db.close()
        assert db.pool._pool is None
        db.close()  # double-close: no error, still released
        assert db.pool._pool is None
        # Execute after close: the parallel kernel must engage again ...
        partitions_before = db.stats.parallel_partitions
        assert sorted(db.execute(query).rows()) == expected
        assert db.stats.parallel_partitions > partitions_before
        # ... on freshly created worker threads.
        assert db.pool._pool is not None
    finally:
        executor_module.PARALLEL_MIN_ROWS = original
        db.close()
    assert db.pool._pool is None
    # SegmentPool.shutdown is idempotent in isolation too.
    pool = SegmentPool(2, max_workers=2)
    pool.map(lambda part: part, [0, 1])
    pool.shutdown()
    pool.shutdown()
    assert pool.map(lambda part: part + 1, [0, 1]) == [1, 2]
    pool.shutdown()


def test_pool_workers_selects_the_width(monkeypatch):
    """``pool_workers`` is the only width selector: capped at one thread
    per segment, defaulting to the host's cores; one worker is serial —
    no thread started, no join chunked."""
    import repro.sqlengine.executor as executor_module

    monkeypatch.setattr(executor_module, "PARALLEL_MIN_ROWS", 1)
    assert Database(n_segments=4, pool_workers=3).pool.n_workers == 3
    assert Database(n_segments=2, pool_workers=8).pool.n_workers == 2
    assert Database(n_segments=4).pool.n_workers == min(4, os.cpu_count())
    db = Database(n_segments=4, pool_workers=1)
    db.load_table("t", {"v": np.arange(500, dtype=np.int64) % 7})
    assert db.execute(
        "select count(*) from t, t as u where t.v = u.v").scalar() > 0
    assert db.stats.parallel_partitions == 0
    assert db.pool._pool is None
    db.close()


def test_pool_map_keeps_item_order_past_the_worker_count():
    """More chunks than workers: every chunk runs on a pool thread and the
    results come back in item order; a one-worker pool runs them inline on
    the calling thread."""
    from repro.sqlengine.mpp import SegmentPool

    def chunk(item):
        return item * item, threading.current_thread().name

    pool = SegmentPool(4, max_workers=2)
    try:
        results = pool.map(chunk, list(range(12)))
    finally:
        pool.shutdown()
    assert [value for value, _ in results] == [i * i for i in range(12)]
    assert all(name.startswith("repro-segment") for _, name in results)
    serial = SegmentPool(4, max_workers=1)
    caller = threading.current_thread().name
    assert serial.map(chunk, list(range(12))) == [
        (i * i, caller) for i in range(12)]
    assert serial._pool is None


def test_pool_map_raises_a_failed_chunk_and_stays_usable():
    """A chunk's error reaches the statement that dispatched it, and the
    pool runs the next dispatch."""
    from repro.sqlengine.mpp import SegmentPool

    def chunk(item):
        if item == 5:
            raise ValueError("chunk 5")
        return item + 1

    pool = SegmentPool(4, max_workers=4)
    try:
        with pytest.raises(ValueError, match="chunk 5"):
            pool.map(chunk, list(range(8)))
        assert pool.map(chunk, [0, 1, 2]) == [1, 2, 3]
    finally:
        pool.shutdown()


def test_close_with_parallel_disabled_is_safe():
    """A one-worker pool is serial execution: closing it, twice, and
    running on afterwards never creates a worker thread."""
    db = Database(n_segments=2, pool_workers=1)
    assert db.pool.n_workers == 1
    db.close()
    db.close()
    db.execute("create table t (v int64)")
    db.execute("insert into t values (1)")
    assert db.execute("select count(*) from t").scalar() == 1
    assert db.pool._pool is None


def test_stats_deltas_do_not_depend_on_the_pool_width():
    """Per-statement counter deltas of a four-worker database equal a
    one-worker database's **exactly**, apart from the fan-out's own
    counters: a chunked kernel moves no accounting.  Exercised over a warm
    RC-style round loop (repeated join / group-by / scalar-count
    templates), so deltas land on cold and warm paths alike."""
    import repro.sqlengine.executor as executor_module

    fan_out_only = {"parallel_partitions", "parallel_indexed_probes",
                    "parallel_dense_probes"}
    rng = np.random.default_rng(31)
    n = 3000
    v1 = rng.integers(0, 120, n)
    v2 = rng.integers(0, 120, n)
    rep = rng.integers(0, 120, 120)

    def build(workers):
        db = Database(n_segments=4, pool_workers=workers)
        db._executor.use_index_cache = False
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
    serial_db, pool_db = build(1), build(4)
    original = executor_module.PARALLEL_MIN_ROWS
    executor_module.PARALLEL_MIN_ROWS = 1
    try:
        for sql in statements:
            before_s = serial_db.stats.snapshot()
            before_p = pool_db.stats.snapshot()
            serial_db.execute(sql)
            pool_db.execute(sql)
            delta_s = serial_db.stats.snapshot().delta(before_s)
            delta_p = pool_db.stats.snapshot().delta(before_p)
            for field in dataclasses.fields(delta_s):
                if field.name in fan_out_only:
                    continue
                assert getattr(delta_p, field.name) == \
                    getattr(delta_s, field.name), (sql, field.name)
            assert serial_db.stats.log[-1].bytes_written == \
                pool_db.stats.log[-1].bytes_written
            assert serial_db.stats.log[-1].motion_bytes == \
                pool_db.stats.log[-1].motion_bytes
    finally:
        executor_module.PARALLEL_MIN_ROWS = original
    assert pool_db.stats.parallel_partitions > 0
    assert serial_db.stats.parallel_partitions == 0
    serial_db.close()
    pool_db.close()


def test_bump_rejects_unknown_counters():
    db = Database(pool_workers=1)
    db.stats.bump("hash_distincts", 3)
    assert db.stats.hash_distincts == 3
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
    db = Database(pool_workers=1)
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

    db = Database(pool_workers=1)
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
    db = Database(pool_workers=1)
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
