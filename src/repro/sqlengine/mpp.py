"""Massively-parallel-processing simulation: segments, hashing, data motion.

The paper runs on Apache HAWQ, where every table is hash-distributed over
cluster segments by a distribution column (the ``distributed by (v)``
clauses of Appendix A) and the dominant cost of a distributed query is the
*data motion* needed to co-locate join/aggregation keys.

This module reproduces that model virtually: tables carry a distribution
column, rows map to segments by a 64-bit mixing hash, and the executor
consults :class:`Cluster` to decide — exactly like an MPP planner — whether
an operation is co-located (no motion), needs a redistribution (ship the
mismatched side), or is cheaper served by broadcasting a small relation to
every segment.  The decisions feed the motion counters in
:mod:`repro.sqlengine.stats`; row data itself is kept in whole-column numpy
arrays because physically scattering it would only slow the simulation
without changing any measured quantity.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from concurrent.futures import (
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ExecutionError
from .shm import ShmRegistry
from .types import Column

#: splitmix64 constants, used as the segment-assignment hash.
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def hash64(values: np.ndarray) -> np.ndarray:
    """splitmix64 finaliser — a well-mixed 64-bit hash of int64/uint64 keys."""
    x = np.ascontiguousarray(values).astype(np.uint64, copy=True)
    x += _GOLDEN
    x ^= x >> np.uint64(30)
    x *= _MIX_1
    x ^= x >> np.uint64(27)
    x *= _MIX_2
    x ^= x >> np.uint64(31)
    return x


class SegmentPool:
    """A worker pool executing per-segment kernel partitions.

    The pool mirrors the cluster layout: work is split into ``n_segments``
    partitions or chunks and executed on ``max_workers`` threads, at most
    one per segment (default ``min(n_segments, cpu_count)``).  numpy
    releases the GIL inside its kernels, so they run genuinely
    concurrently on multi-core hosts.  A pool of one worker — a single
    core, or ``max_workers=1`` — is serial execution: ``map`` and
    ``submit`` run inline on the calling thread, the executor calls every
    kernel once over its whole input, and no thread is ever created.

    The thread pool is created lazily on first use, so accounting-only
    databases never spawn threads.
    """

    #: True on pools whose kernel tasks run in worker processes (see
    #: :class:`ProcessSegmentPool`).
    supports_processes = False
    #: Shared-memory registry; only process-backed pools own one.
    registry: Optional[ShmRegistry] = None

    def __init__(self, n_segments: int, max_workers: Optional[int] = None):
        if n_segments < 1:
            raise ValueError("a segment pool needs at least one segment")
        self.n_segments = n_segments
        if max_workers is not None:
            self.n_workers = max(1, min(n_segments, max_workers))
        else:
            self.n_workers = max(1, min(n_segments, os.cpu_count() or 1))
        self._pool: Optional[ThreadPoolExecutor] = None
        self._init_lock = threading.Lock()

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._init_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.n_workers,
                    thread_name_prefix="repro-segment",
                )
            return self._pool

    def map(self, fn: Callable, items: Sequence) -> list:
        """Run ``fn`` over ``items``, in order; threaded when it can help."""
        if self.n_workers <= 1 or len(items) <= 1:
            return [fn(item) for item in items]
        return list(self._ensure_pool().map(fn, items))

    #: Kernel dispatch (:func:`repro.sqlengine.parallel._run`): ``fn`` over
    #: ``(shared inputs, task)`` payloads.  On threads that is ``map``.
    run_tasks = map

    def share(self, inputs: Sequence) -> Optional[tuple]:
        """A kernel dispatch's big inputs as this pool's workers read them:
        here the driver's own arrays (a Column gives its storage)."""
        return tuple(
            item.storage if isinstance(item, Column) else item
            for item in inputs
        )

    def submit(self, fn: Callable, *args) -> Future:
        """Schedule one task on the pool, returning its Future.

        Used by the dataflow scheduler to run a statement group — a
        contraction round's representative composition — off the critical
        path.  On a single-worker pool the task runs inline (no overlap is
        possible) and a completed Future is returned, so callers need no
        special casing.  A task running on a worker may itself call
        :meth:`map`; its partitions are then served by the remaining
        workers.
        """
        if self.n_workers <= 1:
            future: Future = Future()
            try:
                future.set_result(fn(*args))
            except BaseException as error:  # propagate via the future
                future.set_exception(error)
            return future
        return self._ensure_pool().submit(fn, *args)

    def shutdown(self) -> None:
        """Release the worker threads (a later ``map`` re-creates them).

        Idle workers also exit when the pool is garbage collected, but
        long-lived processes juggling many databases should close them
        deterministically via :meth:`Database.close`.
        """
        if self._pool is not None:
            self._pool.shutdown(wait=False)
            self._pool = None

    @property
    def task_slots(self) -> int:
        """Concurrent pool-managed *tasks* (statement groups) this pool
        can serve.  The dataflow scheduler caps its in-flight
        statement groups at ``task_slots - 1`` so kernel fan-out always
        finds a free worker; process-backed pools keep the same thread-side
        surface (tasks are closures and stay in-process), so the cap is the
        thread worker count on every backend."""
        return self.n_workers


def _process_task_entry(fn: Callable, payload: object) -> tuple[object, dict]:
    """Worker-process entry: run one kernel task, return its result plus
    the worker-side EngineStats delta the driver merges deterministically."""
    return fn(payload), {"process_tasks": 1}


class ProcessSegmentPool(SegmentPool):
    """A SegmentPool whose per-segment kernels run in worker *processes*.

    The thread-side surface (``map``/``submit``) is inherited unchanged —
    dataflow statement groups are closures over the Database and stay
    in-process — while the kernels
    in :mod:`repro.sqlengine.parallel` dispatch their partitions here:
    :meth:`share` turns a dispatch's inputs into shm descriptors and
    :meth:`run_tasks` ships ``(descriptors, small args)`` payloads, never
    column data, so each worker rehydrates zero-copy views and runs the
    same kernel function a thread worker would, outside the driver's GIL.
    Every task returns ``(result, stats delta)``
    and the driver folds the deltas into :class:`EngineStats` in
    submission order, keeping accounting deterministic.

    A crashed or killed worker breaks the executor: every in-flight future
    is poisoned, surfaced as one clear :class:`ExecutionError`, and the
    executor is discarded so the next kernel transparently restarts the
    workers.  ``shutdown()`` additionally unlinks every shared-memory
    block through the pool's :class:`~repro.sqlengine.shm.ShmRegistry`.
    """

    supports_processes = True

    def __init__(self, n_segments: int, max_workers: Optional[int] = None):
        super().__init__(n_segments, max_workers)
        self.registry = ShmRegistry()
        #: Hook receiving merged worker stat deltas (wired by Database to
        #: ``EngineStats.merge_worker_delta``).
        self.on_stats_delta: Optional[Callable[[dict], None]] = None
        # fork skips re-importing the engine in every worker; spawn is
        # the fallback where fork is unavailable.
        methods = multiprocessing.get_all_start_methods()
        self._start_method = "fork" if "fork" in methods else methods[0]
        self._processes: Optional[ProcessPoolExecutor] = None
        self._proc_lock = threading.Lock()

    def _ensure_processes(self) -> ProcessPoolExecutor:
        with self._proc_lock:
            if self._processes is None:
                self._processes = ProcessPoolExecutor(
                    max_workers=self.n_workers,
                    mp_context=multiprocessing.get_context(self._start_method),
                )
            return self._processes

    def _discard_processes(self, wait: bool = False) -> None:
        with self._proc_lock:
            executor, self._processes = self._processes, None
        if executor is not None:
            executor.shutdown(wait=wait, cancel_futures=True)

    def share(self, inputs: Sequence) -> Optional[tuple]:
        """Copy each input once into shared memory (see
        :class:`~repro.sqlengine.shm.ShmRegistry`) and return the picklable
        descriptors, or ``None`` when worker processes cannot serve this
        dispatch — a text payload, a failed allocation, a single worker —
        and the caller runs the same kernel on the pool's threads."""
        if self.n_workers <= 1:
            return None
        registry = self.registry
        shared = []
        for item in inputs:
            if item is not None:
                item = (
                    registry.export_column(item) if isinstance(item, Column)
                    else registry.export_array(item)
                )
                if item is None:
                    return None
            shared.append(item)
        return tuple(shared)

    def run_tasks(self, fn: Callable, payloads: Sequence) -> list:
        """Run ``fn(payload)`` per payload in worker processes, in order.

        ``fn`` must be a module-level function and each payload picklable
        (descriptors + small args).  Worker stat deltas are merged in
        submission order and handed to :attr:`on_stats_delta` once per
        call, so totals are independent of worker scheduling.
        """
        payloads = list(payloads)
        if not payloads:
            return []
        executor = self._ensure_processes()
        try:
            futures = [
                executor.submit(_process_task_entry, fn, payload)
                for payload in payloads
            ]
            outs = [future.result() for future in futures]
        except BrokenExecutor as error:
            self._discard_processes()
            raise ExecutionError(
                "segment worker process died mid-kernel; in-flight work was "
                "poisoned and the process pool will restart on next use"
            ) from error
        results = []
        merged: dict[str, int] = {}
        for result, delta in outs:
            for counter, by in delta.items():
                merged[counter] = merged.get(counter, 0) + by
            results.append(result)
        if merged and self.on_stats_delta is not None:
            self.on_stats_delta(merged)
        return results

    def shutdown(self) -> None:
        """Terminate both executors and unlink every shared block.

        Idempotent: a second call finds nothing to release.  The pool —
        like its thread-backed base — stays usable afterwards; the next
        kernel re-creates the workers and re-exports its inputs.
        """
        super().shutdown()
        self._discard_processes(wait=True)
        self.registry.release_all()


@dataclass(frozen=True)
class MotionPlan:
    """The planner's verdict on how an operator's input gets co-located."""

    kind: str  # "colocated", "redistribute" or "broadcast"
    moved_bytes: int


class Cluster:
    """A virtual MPP cluster: segment count and motion-cost decisions."""

    def __init__(self, n_segments: int = 4, broadcast_row_limit: int = 4096):
        if n_segments < 1:
            raise ValueError("a cluster needs at least one segment")
        self.n_segments = n_segments
        #: Relations at or below this row count are broadcast rather than
        #: redistributed when that moves fewer bytes, mimicking the
        #: broadcast-motion optimisation of real MPP planners.
        self.broadcast_row_limit = broadcast_row_limit

    def segment_of(self, column: Column) -> np.ndarray:
        """Segment assignment of each row under hash distribution."""
        if column.sql_type == "text":
            hashed = np.array([hash(v) for v in column.values], dtype=np.uint64)
        else:
            hashed = hash64(column.values)
        return (hashed % np.uint64(self.n_segments)).astype(np.int64)

    def skew(self, column: Column) -> float:
        """Max/mean segment load ratio; 1.0 is perfectly balanced."""
        if len(column) == 0:
            return 1.0
        segments = self.segment_of(column)
        counts = np.bincount(segments, minlength=self.n_segments)
        return float(counts.max() / max(counts.mean(), 1e-12))

    def plan_motion(
        self,
        side_bytes: int,
        side_rows: int,
        colocated: bool,
    ) -> MotionPlan:
        """Decide how one join/aggregation input reaches its keyed segments.

        ``colocated`` means the relation is already distributed on the
        operation key.  A single-segment cluster never moves data.
        """
        if colocated or self.n_segments == 1 or side_rows == 0:
            return MotionPlan("colocated", 0)
        if side_rows <= self.broadcast_row_limit:
            # Small table: a real planner broadcasts it so the big side
            # stays put.  We charge the replicated bytes.
            return MotionPlan("broadcast", side_bytes * self.n_segments)
        return MotionPlan("redistribute", side_bytes)
