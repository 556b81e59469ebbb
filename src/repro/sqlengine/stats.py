"""Execution statistics: the measurement substrate for Tables III–V.

The paper evaluates algorithms on three axes besides wall-clock time:

* **maximum space used** (Table IV) — the peak amount of storage occupied by
  live tables at any point during the run;
* **total data written** (Table V) — every byte ever written into a table,
  which is what a transactional execution would have to retain for rollback;
* **query count** — Randomised Contraction's O(log |V|) bound is stated in
  SQL queries.

:class:`EngineStats` tracks all three plus simulated MPP data motion, and
enforces an optional space budget whose violation the bench harness reports
as "did not finish" — reproducing the DNF cells of Table III.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, make_dataclass
from typing import Optional

from .errors import SpaceBudgetExceeded

#: Every counter :class:`EngineStats` keeps — the one declaration.
#: :class:`StatsSnapshot`'s fields, its ``delta``, the accumulator's
#: zeroing and its snapshot are all derived from this tuple, and worker
#: deltas are validated against it; a new counter is a name here, a
#: ``record_*`` method, a line in the CLI footer and a README table row
#: (``tests/test_mpp_stats.py`` fails if either of the last two is
#: forgotten) — and ``tests/test_traffic.py`` fails unless some reproduced
#: algorithm moves it at ``Database()`` defaults or its allow-list says why
#: none can.
COUNTERS = (
    # The paper's axes (Tables III-V) and simulated MPP data motion.
    "queries",
    "rows_written",
    "bytes_written",
    "motion_bytes",
    "broadcast_bytes",
    "live_bytes",
    "peak_live_bytes",
    # Engine-cache effectiveness counters (see plancache.py / table.py).
    "plan_cache_hits",
    "plan_cache_misses",
    "index_cache_hits",
    "index_cache_misses",
    # Physical-plan layer counters (see physicalplan.py / executor.py).
    "physical_plan_hits",
    "physical_plan_misses",
    "physical_plan_invalidations",
    "fused_pipelines",
    "fused_group_pipelines",
    "join_chain_fusions",
    "left_chain_fusions",
    "group_sorts_skipped",
    "parallel_partitions",
    "parallel_indexed_probes",
    "parallel_dense_probes",
    "hash_distincts",
    "overlapped_compositions",
    "dataflow_overlaps",
    "effects_cache_hits",
    # Process-backend counters (see mpp.ProcessSegmentPool / shm.py).
    "process_tasks",
    "shm_bytes_exported",
    "stats_merges",
)

#: The counters that are levels, not running totals: a delta between two
#: snapshots keeps the later value instead of subtracting.
GAUGES = frozenset({"live_bytes", "peak_live_bytes"})


@dataclass
class QueryRecord:
    """Per-statement log entry."""

    label: str
    sql: str
    rows: int
    bytes_written: int
    motion_bytes: int
    elapsed_seconds: float


def _snapshot_delta(self, earlier: "StatsSnapshot") -> "StatsSnapshot":
    """Counters accumulated since ``earlier`` (peak is the later peak)."""
    return StatsSnapshot(*[
        getattr(self, name) if name in GAUGES
        else getattr(self, name) - getattr(earlier, name)
        for name in COUNTERS
    ])


StatsSnapshot = make_dataclass(
    "StatsSnapshot",
    [(name, int, 0) for name in COUNTERS],
    namespace={
        "__doc__": "Immutable copy of the counters, for before/after "
                   "diffing: one ``int`` field per entry of ``COUNTERS``.",
        "delta": _snapshot_delta,
    },
)
# make_dataclass cannot know the defining module before Python 3.12;
# pickling and repr need it.
StatsSnapshot.__module__ = __name__


class EngineStats:
    """Mutable statistics accumulator owned by a Database instance.

    Counter updates are guarded by a lock and the per-statement scratch
    counters are thread-local, so statements of an overlapped composition
    (see :mod:`repro.core.randomised_contraction`) can execute on a
    :class:`~repro.sqlengine.mpp.SegmentPool` worker while the driving
    thread runs the next round — totals stay exact and each
    :class:`QueryRecord` attributes bytes/motion to its own statement.
    """

    def __init__(self, space_budget_bytes: Optional[int] = None):
        self.space_budget_bytes = space_budget_bytes
        for name in COUNTERS:
            setattr(self, name, 0)
        self.log: list[QueryRecord] = []
        self._lock = threading.Lock()
        # Per-statement scratch counters, folded into a QueryRecord by the
        # database façade around each execute() call.  Thread-local so an
        # overlapped composition statement never pollutes the accounting of
        # the statement concurrently executing on the driving thread.
        self._scratch = threading.local()

    def _stmt(self) -> "threading.local":
        scratch = self._scratch
        if not hasattr(scratch, "bytes"):
            scratch.bytes = 0
            scratch.rows = 0
            scratch.motion = 0
        return scratch

    # -- table lifecycle ----------------------------------------------------

    def record_table_created(self, n_bytes: int, n_rows: int) -> None:
        """Account a freshly materialised table and enforce the budget."""
        scratch = self._stmt()
        scratch.bytes += n_bytes
        scratch.rows += n_rows
        with self._lock:
            self.rows_written += n_rows
            self.bytes_written += n_bytes
            self.live_bytes += n_bytes
            if self.live_bytes > self.peak_live_bytes:
                self.peak_live_bytes = self.live_bytes
            live = self.live_bytes
        if (
            self.space_budget_bytes is not None
            and live > self.space_budget_bytes
        ):
            raise SpaceBudgetExceeded(live, self.space_budget_bytes)

    def record_table_dropped(self, n_bytes: int) -> None:
        with self._lock:
            self.live_bytes -= n_bytes

    def record_rows_appended(self, n_bytes: int, n_rows: int) -> None:
        """INSERT accounting (same budget rules as table creation)."""
        self.record_table_created(n_bytes, n_rows)

    # -- data motion ----------------------------------------------------------

    def record_redistribution(self, n_bytes: int) -> None:
        """Rows re-hashed to other segments ahead of a join/aggregation."""
        self._stmt().motion += n_bytes
        with self._lock:
            self.motion_bytes += n_bytes

    def record_broadcast(self, n_bytes: int, n_segments: int) -> None:
        """A small relation replicated to every segment."""
        total = n_bytes * n_segments
        self._stmt().motion += total
        with self._lock:
            self.motion_bytes += total
            self.broadcast_bytes += total

    # -- engine caches --------------------------------------------------------

    def _bump(self, counter: str, by: int = 1) -> None:
        with self._lock:
            setattr(self, counter, getattr(self, counter) + by)

    def record_plan_cache_hit(self) -> None:
        """A statement executed from a cached parse (zero lexer/parser cost)."""
        self._bump("plan_cache_hits")

    def record_plan_cache_miss(self) -> None:
        """A statement that had to be parsed from scratch."""
        self._bump("plan_cache_misses")

    def record_index_cache_hit(self) -> None:
        """A keyed operator reused a stored table's cached column index."""
        self._bump("index_cache_hits")

    def record_index_cache_miss(self) -> None:
        """A keyed operator built (and cached) a stored column index."""
        self._bump("index_cache_misses")

    def record_physical_plan_hit(self) -> None:
        """A statement re-executed its template's cached physical plan."""
        self._bump("physical_plan_hits")

    def record_physical_plan_miss(self) -> None:
        """A statement compiled its physical plan from scratch."""
        self._bump("physical_plan_misses")

    def record_physical_plan_invalidation(self) -> None:
        """A cached physical plan failed its validity check (schema or
        binding drift) and was recompiled."""
        self._bump("physical_plan_invalidations")

    def record_fused_pipeline(self) -> None:
        """A join fed DISTINCT through one fused kernel pass instead of
        materialising the intermediate frame and relation."""
        self._bump("fused_pipelines")

    def record_fused_group_pipeline(self) -> None:
        """A join fed GROUP BY through one fused kernel pass: the aggregate
        ran directly over the probe stream instead of a materialised frame."""
        self._bump("fused_group_pipelines")

    def record_join_chain_fusion(self) -> None:
        """A chain of two or more joins streamed through composed row-index
        maps — no intermediate join output was ever materialised."""
        self._bump("join_chain_fusions")

    def record_left_chain_fusion(self) -> None:
        """A LEFT OUTER JOIN streamed inside a fused join chain: its
        null-extended probe rows travelled as a validity mask through the
        composed row maps instead of materialising a padded frame."""
        self._bump("left_chain_fusions")

    def record_group_sort_skipped(self) -> None:
        """A GROUP BY ran sort-free and gather-free because a cached index
        proved its input pre-sorted on disk."""
        self._bump("group_sorts_skipped")

    def record_parallel_partitions(self, n_partitions: int) -> None:
        """A kernel executed segment-parallel over this many partitions."""
        self._bump("parallel_partitions", n_partitions)

    def record_parallel_indexed_probe(self) -> None:
        """A join probed a cached sorted index in parallel chunks."""
        self._bump("parallel_indexed_probes")

    def record_parallel_dense_probe(self) -> None:
        """A dense direct-address join probed its slot table in parallel
        chunks (the build side's cached index no longer forces the
        single-threaded kernel)."""
        self._bump("parallel_dense_probes")

    def record_hash_distinct(self) -> None:
        """A DISTINCT ran on the packed-sort hash kernel (no lexsort)."""
        self._bump("hash_distincts")

    def record_overlapped_composition(self) -> None:
        """A contraction round's representative composition executed on the
        segment pool, overlapped with the next round's contraction."""
        self._bump("overlapped_compositions")

    def record_dataflow_overlap(self) -> None:
        """The dataflow scheduler dispatched a statement group that is
        independent of — and therefore runs concurrently with — at least
        one other in-flight statement group."""
        self._bump("dataflow_overlaps")

    def record_effects_cache_hit(self) -> None:
        """The dataflow scheduler derived a statement's read/write table
        sets from a cached plan template instead of a fresh parse."""
        self._bump("effects_cache_hits")

    def record_shm_export(self, n_bytes: int) -> None:
        """A kernel input was copied into a new shared-memory block for
        the process backend (repeat uses of the same column or index array
        attach the existing block and are not counted)."""
        self._bump("shm_bytes_exported", n_bytes)

    def merge_worker_delta(self, delta: dict) -> None:
        """Fold a worker process's counter deltas into the totals.

        Worker kernels cannot touch the driver's counters directly, so
        each process task returns a small ``{counter: increment}`` dict;
        the pool sums them in submission order and hands one merged dict
        here per kernel dispatch — deterministic regardless of worker
        scheduling.  Unknown counter names are a protocol error."""
        with self._lock:
            for counter, by in delta.items():
                if counter not in COUNTERS:
                    raise ValueError(
                        f"worker delta names unknown counter {counter!r}"
                    )
                setattr(self, counter, getattr(self, counter) + int(by))
            self.stats_merges += 1

    # -- statement bracketing -------------------------------------------------

    def begin_statement(self) -> None:
        scratch = self._stmt()
        scratch.bytes = 0
        scratch.rows = 0
        scratch.motion = 0

    def end_statement(self, label: str, sql: str, rows: int, elapsed: float) -> None:
        scratch = self._stmt()
        with self._lock:
            self.queries += 1
            self.log.append(
                QueryRecord(
                    label=label,
                    sql=sql if len(sql) <= 200 else sql[:197] + "...",
                    rows=rows,
                    bytes_written=scratch.bytes,
                    motion_bytes=scratch.motion,
                    elapsed_seconds=elapsed,
                )
            )

    # -- snapshots -------------------------------------------------------------

    def snapshot(self) -> StatsSnapshot:
        with self._lock:
            return self._snapshot_locked()

    def _snapshot_locked(self) -> StatsSnapshot:
        return StatsSnapshot(*[getattr(self, name) for name in COUNTERS])

    def reset_peak(self) -> None:
        """Restart peak-space tracking from the current live size.

        Called by the bench harness after loading a dataset so Table IV
        measures the algorithm, not the loader.
        """
        self.peak_live_bytes = self.live_bytes

    def reset(self) -> None:
        """Zero the counters and the log; live space carries over as the
        new baseline.  In place and under the lock: pool threads may be
        holding the lock or their thread-local scratch right now."""
        with self._lock:
            live = self.live_bytes
            for name in COUNTERS:
                setattr(self, name, 0)
            self.live_bytes = self.peak_live_bytes = live
            self.log = []
