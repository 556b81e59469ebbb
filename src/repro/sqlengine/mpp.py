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

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

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
    """A worker pool executing per-segment kernel chunks.

    The pool mirrors the cluster layout: a join's probe side is cut into
    ``n_segments`` contiguous chunks and the chunks run on ``max_workers``
    threads, at most one per segment (default ``min(n_segments,
    cpu_count)``).  Only the array kernels that
    :func:`repro.sqlengine.parallel.run_join` dispatches run here;
    statements themselves run one at a time on the calling thread.  numpy releases the GIL inside
    its kernels, so chunks can overlap on multi-core hosts.  A pool of one
    worker — a single core, or ``max_workers=1`` — is serial execution:
    :meth:`map` runs inline on the calling thread, the executor calls
    every kernel once over its whole input, and no thread is ever created.

    The thread pool is created lazily on first use, so accounting-only
    databases never spawn threads.
    """

    def __init__(self, n_segments: int, max_workers: Optional[int] = None):
        if n_segments < 1:
            raise ValueError("a segment pool needs at least one segment")
        self.n_segments = n_segments
        if max_workers is not None:
            self.n_workers = max(1, min(n_segments, max_workers))
        else:
            self.n_workers = max(1, min(n_segments, os.cpu_count() or 1))
        self._pool: Optional[ThreadPoolExecutor] = None

    def map(self, fn: Callable, items: Sequence) -> list:
        """Run ``fn`` over ``items``, in order; threaded when it can help."""
        if self.n_workers <= 1 or len(items) <= 1:
            return [fn(item) for item in items]
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.n_workers,
                thread_name_prefix="repro-segment",
            )
        return list(self._pool.map(fn, items))

    def shutdown(self) -> None:
        """Release the worker threads (a later ``map`` re-creates them).

        Idle workers also exit when the pool is garbage collected, but
        long-lived processes juggling many databases should close them
        deterministically via :meth:`Database.close`.
        """
        if self._pool is not None:
            self._pool.shutdown(wait=False)
            self._pool = None


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
