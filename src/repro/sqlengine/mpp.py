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
without changing any measured quantity.  Nothing here executes anything:
the segments are modelled, and every operator runs once, on the calling
thread.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """Retired shell (see :data:`repro.sqlengine.stats.RETIRED`): one
    worker, no thread, nothing to shut down.  Every join runs on the
    calling thread; only :class:`Cluster` models the segments."""

    n_workers = 1

    def __init__(self, n_segments: int):
        self.n_segments = n_segments

    def shutdown(self) -> None:
        """Nothing to release."""


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
