"""Process-backed SegmentPool tests: lifecycle, hardening, bit-identity.

The process backend's contract has three legs, and each is pinned here:

* **Bit-identical labels** — a full randomised-contraction run returns
  exactly what the thread backend returns (single kernels are covered by
  the backend matrix in ``test_parallel_kernels.py``).
* **Explicit lifecycle** — blocks appear on first parallel use, vanish on
  ``Database.close()`` (and at interpreter exit, and when their keyed
  array dies), double-close is a no-op, and a closed database transparently
  re-creates its workers.
* **Hardening** — a killed worker poisons in-flight futures with one clear
  :class:`~repro.sqlengine.errors.ExecutionError` and the pool restarts on
  the next kernel; budgets and non-shareable payloads fall back to
  threads instead of failing.
"""

import gc
import os
import signal
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.sqlengine import Database
from repro.sqlengine.errors import ExecutionError
from repro.sqlengine.mpp import ProcessSegmentPool, SegmentPool
from repro.sqlengine.shm import ShmRegistry, attach_array
from repro.sqlengine.types import INT64, TEXT, Column


def process_pool() -> ProcessSegmentPool:
    return ProcessSegmentPool(4, max_workers=4)


def _shm_exists(name: str) -> bool:
    return os.path.exists(f"/dev/shm/{name}")


# ---------------------------------------------------------------------------
# bit-identity end to end (kernel by kernel it is pinned by the matrix in
# test_parallel_kernels.py, which runs every kernel on this pool too)
# ---------------------------------------------------------------------------


def test_rc_end_to_end_process_identical(monkeypatch):
    """The tentpole contract: a full randomised-contraction run produces
    bit-identical labels on the thread and process backends."""
    import repro.sqlengine.executor as executor_module

    from repro.core import RandomisedContraction
    from repro.graphs import gnm_random_graph
    from repro.graphs.io import load_edges_into

    monkeypatch.setattr(executor_module, "PARALLEL_MIN_ROWS", 1)
    edges = gnm_random_graph(500, 900, np.random.default_rng(23))

    def run(backend):
        db = Database(n_segments=4, pool_workers=4, pool_backend=backend)
        db._executor.use_index_cache = False
        load_edges_into(db, "edges", edges)
        result = RandomisedContraction().run(db, "edges", seed=13)
        vertices, labels = result.labels(db)
        order = np.argsort(vertices, kind="stable")
        stats = db.stats
        db.close()
        return vertices[order], labels[order], stats

    v_thread, l_thread, stats_thread = run("thread")
    v_process, l_process, stats_process = run("process")
    assert np.array_equal(v_thread, v_process)
    assert np.array_equal(l_thread, l_process)
    assert stats_process.process_tasks > 0
    assert stats_process.shm_bytes_exported > 0
    assert stats_process.stats_merges > 0
    assert stats_thread.process_tasks == 0


# ---------------------------------------------------------------------------
# crash hardening
# ---------------------------------------------------------------------------


def _echo(payload):
    return payload


def _die(payload):
    os.kill(os.getpid(), signal.SIGKILL)


def test_crashed_worker_poisons_inflight_and_pool_restarts():
    pool = process_pool()
    try:
        assert pool.run_tasks(_echo, [1, 2, 3]) == [1, 2, 3]
        with pytest.raises(ExecutionError, match="worker process died"):
            pool.run_tasks(_die, [0, 1, 2, 3])
        # The broken executor was discarded: the next call restarts the
        # workers and completes normally.
        assert pool.run_tasks(_echo, [4, 5]) == [4, 5]
    finally:
        pool.shutdown()


def test_pool_shutdown_is_idempotent_and_pool_restarts():
    pool = process_pool()
    assert pool.run_tasks(_echo, [1]) == [1]
    pool.shutdown()
    pool.shutdown()  # double shutdown: no error
    assert pool.run_tasks(_echo, [2]) == [2]
    pool.shutdown()


# ---------------------------------------------------------------------------
# shared-memory lifecycle
# ---------------------------------------------------------------------------


def test_database_close_unlinks_blocks_and_stays_usable(monkeypatch):
    import repro.sqlengine.executor as executor_module

    monkeypatch.setattr(executor_module, "PARALLEL_MIN_ROWS", 1)
    db = Database(n_segments=4, pool_workers=4, pool_backend="process")
    db._executor.use_index_cache = False
    rng = np.random.default_rng(5)
    n = 3000
    db.load_table("e", {"v1": rng.integers(0, 100, n),
                        "v2": rng.integers(0, 100, n)})
    db.load_table("r", {"v": np.arange(100, dtype=np.int64),
                        "rep": rng.integers(0, 100, 100)})
    query = "select e.v1, r.rep from e, r where e.v1 = r.v"
    expected = sorted(db.execute(query).rows())
    registry = db.pool.registry
    assert db.stats.process_tasks > 0
    assert registry.live_block_count() > 0
    names = registry.created_names()
    # Every block keyed on a live array is in /dev/shm; the blocks of the
    # call's transient inputs (the segment-assignment arrays) went when
    # those arrays died.
    present = [name for name in names if _shm_exists(name)]
    assert present and len(present) == registry.live_block_count()
    db.close()
    assert registry.live_block_count() == 0
    assert not any(_shm_exists(name) for name in names)
    db.close()  # double close: no error, nothing left to release
    # The database stays usable: workers restart, columns re-export.
    tasks_before = db.stats.process_tasks
    assert sorted(db.execute(query).rows()) == expected
    assert db.stats.process_tasks > tasks_before
    db.close()
    assert not any(_shm_exists(name)
                   for name in registry.created_names())


def test_no_shm_leaks_after_bench_style_rc_run(monkeypatch):
    """Satellite contract: a bench-style contraction run leaves zero
    ``/dev/shm`` segments once the database is closed."""
    import repro.sqlengine.executor as executor_module

    from repro.core import RandomisedContraction
    from repro.graphs import gnm_random_graph
    from repro.graphs.io import load_edges_into

    monkeypatch.setattr(executor_module, "PARALLEL_MIN_ROWS", 1)
    db = Database(n_segments=4, pool_workers=4, pool_backend="process")
    db._executor.use_index_cache = False
    edges = gnm_random_graph(400, 700, np.random.default_rng(9))
    load_edges_into(db, "edges", edges)
    RandomisedContraction().run(db, "edges", seed=4)
    assert db.stats.process_tasks > 0
    names = db.pool.registry.created_names()
    assert names
    db.close()
    leaked = sorted(name for name in names if _shm_exists(name))
    assert leaked == []


def test_block_unlinked_when_keyed_array_dies():
    registry = ShmRegistry()
    array = np.arange(1000, dtype=np.int64)
    descriptor = registry.export_array(array)
    assert descriptor is not None
    assert registry.export_array(array) is descriptor  # cached by identity
    assert registry.live_block_count() == 1
    assert _shm_exists(descriptor.name)
    view = attach_array(descriptor)
    assert np.array_equal(view, array)
    del view, array
    gc.collect()
    assert registry.live_block_count() == 0
    assert not _shm_exists(descriptor.name)


def test_column_export_adopts_shared_storage():
    registry = ShmRegistry()
    values = np.arange(500, dtype=np.int64)
    column = Column(values.copy(), INT64)
    descriptor = registry.export_column(column)
    assert descriptor is not None
    assert np.array_equal(column.values, values)  # bit-identical adoption
    # Re-export is free: same block, no new bytes.
    exported = registry.bytes_exported
    assert registry.export_column(column) is descriptor
    assert registry.bytes_exported == exported
    name = descriptor.name
    del column
    gc.collect()
    registry.release_all()
    assert not _shm_exists(name)


def test_text_columns_are_not_shareable_and_fall_back(monkeypatch):
    registry = ShmRegistry()
    column = Column(np.array(["a", "b"], dtype=object), TEXT)
    assert not column.process_shareable()
    assert registry.export_column(column) is None
    # End-to-end: a text-keyed join on the process backend silently takes
    # the thread kernels and still matches the thread backend.
    import repro.sqlengine.executor as executor_module

    monkeypatch.setattr(executor_module, "PARALLEL_MIN_ROWS", 1)

    def run(backend):
        db = Database(n_segments=4, pool_workers=4, pool_backend=backend)
        db.execute("create table t (k text, v int64)")
        db.execute("insert into t values ('a', 1), ('b', 2), ('a', 3)")
        rows = db.execute(
            "select x.k, x.v, y.v from t as x, t as y where x.k = y.k"
        ).rows()
        db.close()
        return sorted(rows)

    assert run("process") == run("thread")


def test_release_all_keeps_live_views_readable():
    registry = ShmRegistry()
    column = Column(np.arange(256, dtype=np.int64), INT64)
    descriptor = registry.export_column(column)
    registry.release_all()
    assert not _shm_exists(descriptor.name)
    # POSIX unlink: the adopted view still reads the same pages.
    assert int(column.values.sum()) == 255 * 256 // 2


def test_atexit_sweep_leaves_no_segments(tmp_path):
    """An interpreter that exits mid-run without ``close()`` must still
    leave ``/dev/shm`` clean (the module's atexit sweep)."""
    script = textwrap.dedent("""
        import numpy as np
        import repro.sqlengine.executor as executor_module
        from repro.sqlengine import Database

        executor_module.PARALLEL_MIN_ROWS = 1
        db = Database(n_segments=4, pool_workers=4, pool_backend="process")
        db._executor.use_index_cache = False
        rng = np.random.default_rng(2)
        db.load_table("e", {"v1": rng.integers(0, 50, 2000),
                            "v2": rng.integers(0, 50, 2000)})
        db.load_table("r", {"v": np.arange(50, dtype=np.int64),
                            "rep": rng.integers(0, 50, 50)})
        db.execute("select e.v1, r.rep from e, r where e.v1 = r.v")
        assert db.stats.process_tasks > 0
        names = db.pool.registry.created_names()
        assert names
        print("\\n".join(sorted(names)))
        # No close(): the atexit sweep must unlink everything.
    """)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(src)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    names = [line for line in proc.stdout.splitlines() if line.strip()]
    assert names
    leaked = [name for name in names if _shm_exists(name)]
    assert leaked == []


# ---------------------------------------------------------------------------
# backend selection
# ---------------------------------------------------------------------------


def test_backend_argument_selection(monkeypatch):
    """``pool_backend`` is the only backend selector, and the environment
    is not one."""
    monkeypatch.setenv("REPRO_POOL_BACKEND", "process")
    db = Database()
    assert db.pool_backend == "thread"
    assert type(db.pool) is SegmentPool
    db.close()
    db = Database(pool_backend="process")
    assert db.pool_backend == "process"
    assert isinstance(db.pool, ProcessSegmentPool)
    db.close()
    with pytest.raises(ValueError, match="unknown pool backend"):
        Database(pool_backend="greenlet")


def test_space_budget_forces_thread_fallback():
    db = Database(pool_workers=4, pool_backend="process",
                  space_budget_bytes=1 << 30)
    assert db.pool_backend == "thread"
    assert not db.pool.supports_processes
    db.close()


def test_pool_workers_selects_the_width_on_either_backend(monkeypatch):
    """``pool_workers`` is the only width selector: capped at one worker
    per segment, defaulting to the host's cores; one worker is serial on
    either backend — no thread, no worker process, no shared block."""
    import repro.sqlengine.executor as executor_module

    monkeypatch.setattr(executor_module, "PARALLEL_MIN_ROWS", 1)
    assert Database(n_segments=4, pool_workers=3).pool.n_workers == 3
    assert Database(n_segments=2, pool_workers=8).pool.n_workers == 2
    assert Database(n_segments=4).pool.n_workers == min(4, os.cpu_count())
    for backend in ("thread", "process"):
        db = Database(n_segments=4, pool_workers=1, pool_backend=backend)
        assert db.pool_backend == backend and db.pool.n_workers == 1
        db.load_table("t", {"v": np.arange(500, dtype=np.int64) % 7})
        assert db.execute(
            "select count(*) from t, t as u where t.v = u.v").scalar() > 0
        stats = db.stats
        assert stats.parallel_partitions == stats.process_tasks == 0
        assert stats.shm_bytes_exported == 0
        assert db.pool._pool is None
        assert getattr(db.pool, "_processes", None) is None
        db.close()
