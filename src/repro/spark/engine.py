"""The Spark SQL comparison backend (Section VII-C).

The paper also implements Randomised Contraction in Spark SQL and finds it
"roughly 2.3 times as long ... as for the in-database one, despite both
executing the same SQL code on the same hardware", conjecturing that the
gap comes from the database's more mature query optimisation and execution.

:class:`SparkSQLDatabase` reproduces that setting: the *same* SQL text runs
through the same parser and planner, but execution models an RDD/shuffle
engine instead of a co-located MPP database:

* **no co-location awareness** — every join, aggregation and distinct
  performs a full shuffle of its inputs (charged as motion), because the
  modelled engine does not track physical distribution between stages;
* **task granularity** — operator inputs are hash-partitioned into a fixed
  number of tasks and each task runs the kernel separately, paying Python/
  numpy dispatch per task the way an executor pays per-task overhead
  (smaller batches, same total work, more fixed cost);
* **no broadcast optimisation** — small relations are shuffled like large
  ones.

Everything else (SQL dialect, UDFs, statistics, space budget) behaves
identically, so algorithms run unchanged against either backend and the
measured ratio is attributable to the execution model — which is exactly
the comparison Section VII-C makes.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..sqlengine.database import Database
from ..sqlengine.executor import Executor
from ..sqlengine.mpp import hash64
from ..sqlengine.operators import (
    NO_MATCH,
    distinct_rows,
    group_rows,
    join_indices,
    left_join_indices,
)
from ..sqlengine.types import Column


def _partition_ids(key: Column, n_tasks: int) -> np.ndarray:
    """Task assignment by key hash (NULL keys all land in task 0)."""
    if key.sql_type == "text":
        hashed = np.array([hash(v) for v in key.values], dtype=np.uint64)
    else:
        hashed = hash64(key.values)
    parts = (hashed % np.uint64(n_tasks)).astype(np.int64)
    if key.mask is not None:
        parts[key.mask] = 0
    return parts


class SparkExecutor(Executor):
    """Executor with shuffle-everything, per-task kernel execution."""

    #: Every keyed operator runs task by task through the kernels below: no
    #: dictionary-encoded columns (their DISTINCT and joins are whole-column
    #: kernels) and no direct-address GROUP BY.
    whole_column_shortcuts = False

    #: Spark SQL has no MPP-style table indexes to reuse; this also keeps
    #: the shuffle-everything accounting pure.
    use_index_cache = False

    def __init__(self, catalog, registry, cluster, stats, n_tasks: int = 64):
        super().__init__(catalog, registry, cluster, stats)
        self.n_tasks = n_tasks
        #: Total tasks launched, a Spark-ish metric exposed for reporting.
        self.tasks_launched = 0

    # -- motion: every keyed operation shuffles its whole input ------------

    def _charge_join_motion(self, frame, key_names) -> None:
        if frame.length:
            self.stats.record_redistribution(frame.byte_size())

    # -- kernels: hash-partitioned per-task execution ------------------------

    def _dispatch_join(self, left_outer, left_keys, right_keys, right_index,
                       note):
        if note is not None:
            note.append("spark-partitioned")
        return self._partitioned_join(left_keys, right_keys, left_outer)

    def _partitioned_join(self, left_keys, right_keys, outer: bool):
        n_left = len(left_keys[0])
        n_right = len(right_keys[0])
        if min(n_left, n_right) == 0 or max(n_left, n_right) < self.n_tasks * 4:
            self.tasks_launched += 1
            kernel = left_join_indices if outer else join_indices
            return kernel(left_keys, right_keys)
        left_parts = _partition_ids(left_keys[0], self.n_tasks)
        right_parts = _partition_ids(right_keys[0], self.n_tasks)
        left_order = np.argsort(left_parts, kind="stable")
        right_order = np.argsort(right_parts, kind="stable")
        left_bounds = np.searchsorted(left_parts[left_order],
                                      np.arange(self.n_tasks + 1))
        right_bounds = np.searchsorted(right_parts[right_order],
                                       np.arange(self.n_tasks + 1))
        out_left = []
        out_right = []
        kernel = left_join_indices if outer else join_indices
        for task in range(self.n_tasks):
            l_rows = left_order[left_bounds[task]:left_bounds[task + 1]]
            r_rows = right_order[right_bounds[task]:right_bounds[task + 1]]
            if l_rows.size == 0:
                continue
            if r_rows.size == 0:
                if outer:
                    out_left.append(l_rows)
                    out_right.append(np.full(l_rows.size, NO_MATCH, dtype=np.int64))
                continue
            self.tasks_launched += 1
            l_sub = [col.take(l_rows) for col in left_keys]
            r_sub = [col.take(r_rows) for col in right_keys]
            li, ri = kernel(l_sub, r_sub)
            out_left.append(l_rows[li])
            if outer:
                matched = ri != NO_MATCH
                global_ri = np.where(
                    matched, r_rows[np.clip(ri, 0, None)], NO_MATCH
                )
            else:
                global_ri = r_rows[ri]
            out_right.append(global_ri)
        if not out_left:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy()
        return np.concatenate(out_left), np.concatenate(out_right)

    def _group_kernel(self, key_columns, index=None):
        n = len(key_columns[0]) if key_columns else 0
        if n < self.n_tasks * 4:
            self.tasks_launched += 1
            return group_rows(key_columns)
        parts = _partition_ids(key_columns[0], self.n_tasks)
        order = np.argsort(parts, kind="stable")
        bounds = np.searchsorted(parts[order], np.arange(self.n_tasks + 1))
        out_order = []
        out_starts = []
        offset = 0
        for task in range(self.n_tasks):
            rows = order[bounds[task]:bounds[task + 1]]
            if rows.size == 0:
                continue
            self.tasks_launched += 1
            sub = [col.take(rows) for col in key_columns]
            sub_order, sub_starts = group_rows(sub)
            out_order.append(rows[sub_order])
            out_starts.append(sub_starts + offset)
            offset += rows.size
        return np.concatenate(out_order), np.concatenate(out_starts)

    def _distinct_kernel(self, columns, note=None):
        n = len(columns[0]) if columns else 0
        if n < self.n_tasks * 4:
            self.tasks_launched += 1
            return distinct_rows(columns, note=note)
        parts = _partition_ids(columns[0], self.n_tasks)
        order = np.argsort(parts, kind="stable")
        bounds = np.searchsorted(parts[order], np.arange(self.n_tasks + 1))
        keep = []
        for task in range(self.n_tasks):
            rows = order[bounds[task]:bounds[task + 1]]
            if rows.size == 0:
                continue
            self.tasks_launched += 1
            sub = [col.take(rows) for col in columns]
            keep.append(rows[distinct_rows(sub)])
        if not keep:
            return np.empty(0, dtype=np.int64)
        # Distinct rows may still collide across partitions only when the
        # first column alone did not separate them; finish with one pass.
        # The concatenation is partition-major, so the result is sorted to
        # honour the kernel contract (ascending row order).
        candidate = np.concatenate(keep)
        sub = [col.take(candidate) for col in columns]
        # The finish pass runs the same kernel class as the partitioned
        # passes; route its note through so kernel telemetry (hash
        # DISTINCT counting) reflects large inputs too.
        return np.sort(candidate[distinct_rows(sub, note=note)])


class SparkSQLDatabase(Database):
    """A Database whose executor models Spark SQL (see module docstring)."""

    def __init__(
        self,
        n_segments: int = 4,
        space_budget_bytes: Optional[int] = None,
        n_tasks: int = 64,
    ):
        super().__init__(n_segments=n_segments, space_budget_bytes=space_budget_bytes)
        self._executor = SparkExecutor(
            self.catalog, self.registry, self.cluster, self.stats, n_tasks
        )

    @property
    def tasks_launched(self) -> int:
        return self._executor.tasks_launched
