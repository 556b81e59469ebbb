"""The Spark SQL comparison backend (Section VII-C).

The paper also implements Randomised Contraction in Spark SQL and finds it
"roughly 2.3 times as long ... as for the in-database one, despite both
executing the same SQL code on the same hardware", conjecturing that the
gap comes from the database's more mature query optimisation and execution.

:class:`SparkSQLDatabase` reproduces that setting: the *same* SQL text runs
through the same parser and planner, but execution models an RDD/shuffle
engine instead of a co-located MPP database.  Four differences are
modelled:

* **no co-location awareness** — every join, aggregation and distinct
  performs a full shuffle of its inputs (charged as motion), because the
  modelled engine does not track physical distribution between stages;
* **task granularity** — operator inputs are hash-partitioned into a fixed
  number of tasks and each task runs the kernel separately, paying Python/
  numpy dispatch per task the way an executor pays per-task overhead
  (smaller batches, same total work, more fixed cost); a GROUP BY is
  sorted task by task, never reduced by direct addressing over the whole
  column.  With one task, or too few rows to split, an operator is one
  task over whole columns;
* **no broadcast optimisation** — small relations are shuffled like large
  ones;
* **no index reuse** — Spark SQL keeps no table indexes, so the model's
  joins never ask for one (its ``_dispatch_join`` does not call
  ``_stored_index``): no table caches an index and every join sorts or
  addresses its own build side; and the model keeps no sort order either —
  every GROUP BY sorts task by task, so none is reduced where it lies,
  even over a key that arrives sorted.

Storage is shared, not modelled: dictionary-encoded columns are a storage
form that Spark's columnar cache and Parquet use too, so the model stores
and reads the same encoded columns the database does, and its per-task
kernels run on their codes.  Everything else (SQL dialect, UDFs,
statistics, space budget) behaves identically, so algorithms run unchanged
against either backend and the measured ratio is attributable to the
execution model — which is exactly the comparison Section VII-C makes.
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
    """Task assignment by key hash (NULL keys all land in task 0), in the
    narrowest unsigned type that holds every task id: a stable argsort of
    8- or 16-bit ids is numpy's radix sort (15 against 134 ms for int64
    ids over 2M rows on a 2-vCPU Xeon, the same order)."""
    if key.sql_type == "text":
        # hash() is a signed 64-bit int: reinterpret it, as a negative
        # one does not convert to uint64.
        hashed = np.array([hash(v) for v in key.values],
                          dtype=np.int64).view(np.uint64)
    else:
        hashed = hash64(key.values)
    parts = hashed % np.uint64(n_tasks)
    parts = parts.astype(np.min_scalar_type(n_tasks - 1))
    if key.mask is not None:
        parts[key.mask] = 0
    return parts


class SparkExecutor(Executor):
    """Executor with shuffle-everything, per-task, index-less kernel
    execution over the database's own column forms (see the module
    docstring)."""

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

    def _dispatch_join(self, left_outer, left_keys, right_keys, right,
                       right_names, note):
        # Spark SQL has no table indexes to reuse: none is asked for.
        note.append("spark-partitioned")
        return self._partitioned_join(left_keys, right_keys, left_outer)

    def _one_task(self, n_rows: int) -> bool:
        """Whether an operator over ``n_rows`` runs as one task over whole
        columns: the model has one task, or too few rows to split."""
        return self.n_tasks == 1 or n_rows < self.n_tasks * 4

    def _partitioned_join(self, left_keys, right_keys, outer: bool):
        n_left = len(left_keys[0])
        n_right = len(right_keys[0])
        kernel = left_join_indices if outer else join_indices
        if min(n_left, n_right) == 0 or self._one_task(max(n_left, n_right)):
            self.tasks_launched += 1
            return kernel(left_keys, right_keys)
        out_left = []
        out_right = []
        for l_rows, r_rows in zip(self._partitions(left_keys[0]),
                                  self._partitions(right_keys[0])):
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

    def _partitions(self, key: Column) -> list[np.ndarray]:
        """The rows of each task's hash partition of ``key``, ascending,
        in task order (a partition may be empty)."""
        parts = _partition_ids(key, self.n_tasks)
        order = np.argsort(parts, kind="stable")
        ends = np.bincount(parts, minlength=self.n_tasks).cumsum()
        return np.split(order, ends[:-1])

    def _task_rows(self, key: Column):
        """The rows of each non-empty partition of ``key``, one task each."""
        for rows in self._partitions(key):
            if rows.size:
                self.tasks_launched += 1
                yield rows

    def _direct_groups(self, key_columns, aggregates):
        # Every GROUP BY sorts task by task (_group_kernel).
        return None

    def _group_kernel(self, key_columns):
        if self._one_task(len(key_columns[0])):
            self.tasks_launched += 1
            return group_rows(key_columns)
        out_order = []
        out_starts = []
        offset = 0
        for rows in self._task_rows(key_columns[0]):
            sub_order, sub_starts = group_rows(
                [col.take(rows) for col in key_columns])
            out_order.append(rows[sub_order])
            out_starts.append(sub_starts + offset)
            offset += rows.size
        return np.concatenate(out_order), np.concatenate(out_starts)

    def _blocked_distinct(self, plan, chain):
        # Every DISTINCT runs task by task over the filtered columns
        # (_distinct_kernel).
        return None

    def _distinct_kernel(self, columns):
        if self._one_task(len(columns[0])):
            self.tasks_launched += 1
            return distinct_rows(columns)
        tasks = [distinct_rows([col.take(task_rows) for col in columns])
                 for task_rows in self._task_rows(columns[0])]
        # Equal rows share a first column, so no two tasks hold one row;
        # the final pass merges the tasks' outputs into key order.
        return distinct_rows([Column.concat(pieces)
                              for pieces in zip(*tasks)])


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
