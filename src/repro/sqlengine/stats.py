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

from collections import deque
from dataclasses import dataclass, make_dataclass
from typing import Optional

from .errors import SpaceBudgetExceeded

#: How many statements :attr:`EngineStats.log` remembers — far more than
#: one algorithm run issues (a run of RC on 4M edges is ~155), so a
#: per-run reader that resets the stats first sees every record, while a
#: database that lives for many runs keeps only the latest.
LOG_MAXLEN = 1 << 14

#: Every counter :class:`EngineStats` keeps — the one declaration, each
#: name beside what one increment of it means.  :class:`StatsSnapshot`'s
#: fields, its ``delta``, the accumulator's zeroing and its snapshot are all
#: derived from this tuple, and :meth:`EngineStats.bump` is validated
#: against it; a new counter is a name here, a ``bump`` where
#: the path engages, a line in the CLI footer and a README table row
#: (``tests/test_mpp_stats.py`` fails if either of the last two is
#: forgotten) — and ``tests/test_traffic.py`` fails unless some reproduced
#: algorithm moves it at ``Database()`` defaults or its allow-list says why
#: none can.
COUNTERS = (
    # The paper's axes (Tables III-V) and simulated MPP data motion; these
    # move through the table-lifecycle and data-motion methods below.
    "queries",            # statements executed
    "rows_written",       # rows ever written into a table
    "bytes_written",      # bytes ever written into a table (Table V)
    "motion_bytes",       # bytes redistributed or broadcast between segments
    "broadcast_bytes",    # the broadcast share of motion_bytes
    "live_bytes",         # bytes of live tables now (gauge)
    "peak_live_bytes",    # the most live_bytes has been (gauge, Table IV)
    # Engine caches (see plancache.py / table.py).
    "plan_cache_hits",    # statement executed from a cached parse
    "plan_cache_misses",  # statement parsed from scratch
    "index_cache_hits",   # keyed operator reused a table's cached index
    "index_cache_misses",  # keyed operator built (and cached) an index
    # Physical-plan layer (see physicalplan.py / executor.py).
    "physical_plan_hits",    # statement re-ran its template's cached plan
    "physical_plan_misses",  # statement compiled its plan from scratch
    # A cached plan failed its validity check (schema or binding drift)
    # and was recompiled.
    "physical_plan_invalidations",
    # A SELECT DISTINCT of plain columns ran directly above a join: the
    # chain materialised only the columns it projects and filters on.
    "fused_pipelines",
    # A chain of >= 2 joins streamed through composed row-index maps; no
    # intermediate join output was materialised.
    "join_chain_fusions",
    # ... with a LEFT OUTER JOIN inside: its null-extended probe rows
    # travelled as a validity mask through the composed maps.
    "left_chain_fusions",
    # A GROUP BY ran sort-free and gather-free: its one NULL-free integer
    # key arrived sorted, and its rows were reduced where they lie.
    "group_sorts_skipped",
    # Retired (see RETIRED): nothing moves them any more.
    "hash_distincts",
    "parallel_partitions",
    "parallel_indexed_probes",
    "parallel_dense_probes",
    "overlapped_compositions",
    "dataflow_overlaps",
    "effects_cache_hits",
    "process_tasks",
    "shm_bytes_exported",
)

_COUNTER_NAMES = frozenset(COUNTERS)

#: Counters of removed machinery — statement overlap, the process backend,
#: the chunked join fan-out, the hash DISTINCT — that nothing bumps: they
#: stay declared, and read 0, only because ``perf/bench.py`` still reads
#: them as per-layer metrics (a missing counter would report ``None``).
#: They leave together with those probes, and so do the other inert
#: shells the probes call: ``mpp.SegmentPool`` (``n_segments``,
#: ``n_workers = 1``, a no-op ``shutdown``; ``Database.pool`` holds one,
#: whose ``n_workers`` the benchmark reports as ``mpp.workers``)
#: and ``parallel.parallel_join_indices`` (``join_indices``, pool
#: ignored).
RETIRED = frozenset({
    "hash_distincts",
    "parallel_partitions",
    "parallel_indexed_probes",
    "parallel_dense_probes",
    "overlapped_compositions",
    "dataflow_overlaps",
    "effects_cache_hits",
    "process_tasks",
    "shm_bytes_exported",
})

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

    Statements execute one at a time, so the counters are plain
    attributes, and so are the bytes written and moved by the statement
    in flight, which :meth:`end_statement` folds into its
    :class:`QueryRecord`.
    """

    def __init__(self, space_budget_bytes: Optional[int] = None):
        self.space_budget_bytes = space_budget_bytes
        for name in COUNTERS:
            setattr(self, name, 0)
        self.log: deque[QueryRecord] = deque(maxlen=LOG_MAXLEN)
        self._statement_bytes = 0
        self._statement_motion = 0

    # -- table lifecycle ----------------------------------------------------

    def record_table_created(self, n_bytes: int, n_rows: int) -> None:
        """Account a freshly materialised table and enforce the budget."""
        self._statement_bytes += n_bytes
        self.rows_written += n_rows
        self.bytes_written += n_bytes
        self.live_bytes += n_bytes
        if self.live_bytes > self.peak_live_bytes:
            self.peak_live_bytes = self.live_bytes
        if (
            self.space_budget_bytes is not None
            and self.live_bytes > self.space_budget_bytes
        ):
            raise SpaceBudgetExceeded(self.live_bytes,
                                      self.space_budget_bytes)

    def record_table_dropped(self, n_bytes: int) -> None:
        self.live_bytes -= n_bytes

    def record_rows_appended(self, n_bytes: int, n_rows: int) -> None:
        """INSERT accounting (same budget rules as table creation)."""
        self.record_table_created(n_bytes, n_rows)

    # -- data motion ----------------------------------------------------------

    def record_redistribution(self, n_bytes: int) -> None:
        """Rows re-hashed to other segments ahead of a join/aggregation."""
        self._statement_motion += n_bytes
        self.motion_bytes += n_bytes

    def record_broadcast(self, n_bytes: int, n_segments: int) -> None:
        """A small relation replicated to every segment."""
        total = n_bytes * n_segments
        self._statement_motion += total
        self.motion_bytes += total
        self.broadcast_bytes += total

    # -- engagement counters ------------------------------------------------

    def bump(self, counter: str, by: int = 1) -> None:
        """Add ``by`` to one counter of :data:`COUNTERS` (whose comments say
        what an increment of each means); any other name is an error."""
        if counter not in _COUNTER_NAMES:
            raise ValueError(f"unknown counter {counter!r}")
        setattr(self, counter, getattr(self, counter) + by)

    # -- statement bracketing -------------------------------------------------

    def begin_statement(self) -> None:
        self._statement_bytes = 0
        self._statement_motion = 0

    def end_statement(self, label: str, sql: str, rows: int, elapsed: float) -> None:
        self.queries += 1
        self.log.append(
            QueryRecord(
                label=label,
                sql=sql if len(sql) <= 200 else sql[:197] + "...",
                rows=rows,
                bytes_written=self._statement_bytes,
                motion_bytes=self._statement_motion,
                elapsed_seconds=elapsed,
            )
        )

    # -- snapshots -------------------------------------------------------------

    def snapshot(self) -> StatsSnapshot:
        return StatsSnapshot(*[getattr(self, name) for name in COUNTERS])

    def reset_peak(self) -> None:
        """Restart peak-space tracking from the current live size.

        Called by the bench harness after loading a dataset so Table IV
        measures the algorithm, not the loader.
        """
        self.peak_live_bytes = self.live_bytes

    def reset(self) -> None:
        """Zero the counters and the log; live space carries over as the
        new baseline."""
        live = self.live_bytes
        for name in COUNTERS:
            setattr(self, name, 0)
        self.live_bytes = self.peak_live_bytes = live
        self.log.clear()
