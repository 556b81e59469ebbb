"""The Database façade: the object user code talks to.

Mirrors the way the paper's Python driver (Appendix A, Figure 8) talks to
HAWQ: ``execute()`` runs one SQL statement and returns the number of rows it
produced (their ``r.log_exec``), tables can be bulk-loaded, user-defined
functions registered, and the engine statistics inspected for the space and
write accounting of Tables IV and V.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

import numpy as np

from .errors import CatalogError, ExecutionError
from .executor import Executor, Relation
from .functions import FunctionRegistry
from .mpp import Cluster, SegmentPool
from .lexer import split_statements
from .plancache import PlanCache
from .stats import EngineStats
from .table import Catalog, Table
from .types import INT64, Column

class ResultSet:
    """The outcome of one ``execute()`` call."""

    def __init__(self, relation: Optional[Relation], rowcount: int):
        self._relation = relation
        self.rowcount = rowcount

    @property
    def relation(self) -> Relation:
        if self._relation is None:
            raise ExecutionError("statement did not produce rows")
        return self._relation

    def rows(self, limit: Optional[int] = None) -> list[tuple]:
        return self.relation.rows(limit=limit)

    def scalar(self) -> object:
        """The single value of a one-row, one-column result."""
        relation = self.relation
        if relation.n_rows != 1 or len(relation.names) != 1:
            raise ExecutionError(
                f"expected a 1x1 result, got {relation.n_rows} row(s)"
            )
        return relation.rows(limit=1)[0][0]

    def column(self, name: str) -> np.ndarray:
        return self.relation.column(name).values

    @property
    def names(self) -> list[str]:
        return list(self.relation.names)


class Database:
    """An in-process MPP-simulating SQL database.

    Statements execute one at a time, in the order the caller issues them,
    on the calling thread, and every operator of a statement runs there
    too: the engine starts no thread.  The parallelism the paper's MPP
    cluster has is modelled, not executed — data motion is charged by
    :class:`~repro.sqlengine.mpp.Cluster`.  A statement issued while
    another is still running (a UDF calling back into its database) is
    refused with :class:`~repro.sqlengine.errors.ExecutionError`.

    Parameters
    ----------
    n_segments:
        Number of virtual MPP segments (the paper's cluster had 5 nodes x 12
        cores; motion accounting scales with this).
    space_budget_bytes:
        Optional cap on live table space.  Exceeding it raises
        :class:`~repro.sqlengine.errors.SpaceBudgetExceeded`, which the bench
        harness reports as "did not finish" (Table III).
    """

    def __init__(
        self,
        n_segments: int = 4,
        space_budget_bytes: Optional[int] = None,
        broadcast_row_limit: int = 4096,
    ):
        self.catalog = Catalog()
        self.registry = FunctionRegistry()
        self.cluster = Cluster(n_segments, broadcast_row_limit)
        self.stats = EngineStats(space_budget_bytes)
        #: Retired shell (see ``stats.RETIRED``): one worker, no thread.
        self.pool = SegmentPool(n_segments)
        self._executor = Executor(self.catalog, self.registry, self.cluster,
                                  self.stats)
        self._plans = PlanCache()
        #: True while :meth:`execute` runs a statement.
        self._executing = False

    # -- SQL ------------------------------------------------------------

    def execute(self, sql: str, label: str = "") -> ResultSet:
        """Parse and run one SQL statement.

        Statements are parsed through the plan cache: repeated statement
        *templates* (same SQL up to table-name suffixes and integer
        constants — every per-round query of the reproduced algorithms)
        reuse the cached AST instead of re-lexing and re-parsing, and the
        template entry also carries the statement's compiled physical plan
        so re-executions skip planning entirely (see
        :mod:`repro.sqlengine.physicalplan`).

        One statement runs at a time: a call made while another is in
        flight — from a UDF the running statement invokes — raises
        :class:`~repro.sqlengine.errors.ExecutionError` before it touches
        the plan cache, whose templates are patched in place.
        """
        if self._executing:
            raise ExecutionError(
                "a statement is already running on this database: "
                "statements run one at a time, so a function a statement "
                "calls may not execute SQL on its database"
            )
        self._executing = True
        try:
            statement, cache_hit, entry = self._plans.entry_for(sql)
            self.stats.bump("plan_cache_hits" if cache_hit
                            else "plan_cache_misses")
            self.stats.begin_statement()
            started = time.perf_counter()
            relation, rowcount = self._executor.execute(statement,
                                                        plan_slot=entry)
            elapsed = time.perf_counter() - started
        finally:
            self._executing = False
        self.stats.end_statement(label or type(statement).__name__, sql, rowcount,
                                 elapsed)
        return ResultSet(relation, rowcount)

    def execute_script(self, sql: str) -> list[ResultSet]:
        """Run a semicolon-separated script, each statement through
        :meth:`execute` — plan cache, statistics record with the
        statement's own text — and return one result per statement."""
        return [self.execute(statement) for statement in split_statements(sql)]

    # -- extension points -------------------------------------------------

    def create_function(
        self, name: str, fn: Callable[..., np.ndarray], returns: str = INT64,
        immutable: bool = False,
    ) -> None:
        """Register a vectorised user-defined scalar function.

        This is the engine's equivalent of loading the paper's C ``axplusb``
        into HAWQ.  Literal SQL arguments arrive as Python scalars, column
        arguments as numpy arrays.  ``immutable=True`` is PostgreSQL's
        ``IMMUTABLE``: the result is a function of the arguments alone, so
        the engine may call ``fn`` once per distinct argument value instead
        of once per row (see :meth:`FunctionRegistry.register_udf`).
        """
        self.registry.register_udf(name, fn, returns, immutable=immutable)

    # -- bulk data ----------------------------------------------------------

    def load_table(
        self,
        name: str,
        columns: dict[str, np.ndarray],
        distributed_by: Optional[str] = None,
    ) -> Table:
        """Create a table directly from numpy arrays (dataset ingestion)."""
        if name.lower() in self.catalog:
            raise CatalogError(f"table {name!r} already exists")
        wrapped = {
            col_name: Column.from_values(values) for col_name, values in columns.items()
        }
        table = Table(name.lower(), wrapped, distributed_by)
        self.catalog.put(table)
        self.stats.record_table_created(table.byte_size(), table.n_rows)
        return table

    def table(self, name: str) -> Table:
        """Look up a stored table."""
        return self.catalog.get(name)

    def table_names(self) -> list[str]:
        return self.catalog.names()

    def drop_table(self, name: str, if_exists: bool = False) -> None:
        if if_exists and name.lower() not in self.catalog:
            return
        table = self.catalog.drop(name)
        self.stats.record_table_dropped(table.byte_size())

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Release nothing: the engine holds no thread, process or file.

        Kept, with the context manager, as the lifecycle API callers
        already use; idempotent, and the database stays usable afterwards.
        """

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- accounting -----------------------------------------------------------

    @property
    def live_bytes(self) -> int:
        return self.stats.live_bytes

    def reset_stats(self) -> None:
        """Zero the counters, keeping live-space accounting consistent."""
        self.stats.reset()
