"""The differential oracle: stdlib ``sqlite3``, an engine that shares nothing
with the one under test.

The paper's claim is that Randomised Contraction is SQL-implementable on a
stock database, and ConnectIt's lesson (Dhulipala et al.) is that
many-variant connectivity code stays trustworthy only when checked against
a *simple, independent* reference.  This module is that reference: the SQL
the drivers and the fuzz generator emit runs unmodified on sqlite up to
four dialect rewrites —

* ``distributed by (...)`` is dropped (sqlite has no segments),
* ``drop table a, b`` becomes one ``DROP`` per table,
* ``truncate [table] t`` becomes ``delete from t``,
* ``least`` / ``greatest`` are registered with PostgreSQL NULL semantics
  (NULL arguments are skipped; sqlite's multi-argument ``min`` / ``max``
  return NULL if any argument is),

and user-defined functions are wrapped as scalar callbacks (the
contraction UDFs accept a scalar ``x``; a NULL argument gives NULL, the
engine's strict-UDF rule).

:func:`tee` attaches an oracle to one ``Database`` instance: every
statement the instance executes also runs here, and the SELECT result or
the table the statement wrote is compared with sqlite's as a sorted row
list.  Row *content* is what an outside engine can referee; row order,
column names and types stay an engine-vs-engine contract (warm against
cold plan, indexed against index-less) checked where two engine runs are
compared.

Nothing is imported from ``repro.sqlengine``: the tee drives the database
through the methods every caller uses (``execute``, ``load_table``,
``drop_table``, ``create_function``, ``table``).

Documented non-goals — dialect differences the oracle surfaced that are
deliberately not engine bugs (one line, one reason each):

* (none: ``avg``, ``sum``, ``count(distinct)``, ``IS NULL``, LEFT JOIN +
  GROUP BY on the padded side, UNION ALL and subquery FROM items agree.)
"""

from __future__ import annotations

import re
import sqlite3

import numpy as np

_DISTRIBUTED_BY = re.compile(r"\s+distributed\s+by\s*\([^)]*\)", re.I)
_DROP = re.compile(r"\s*drop\s+table\s+(if\s+exists\s+)?(.+?)\s*;?\s*$",
                   re.I | re.S)
_TRUNCATE = re.compile(r"\s*truncate\s+(?:table\s+)?(\w+)", re.I)
#: The table a statement leaves behind, by statement kind.
_WRITTEN = re.compile(
    r"\s*(?:create\s+table\s+(\w+)|insert\s+into\s+(\w+)"
    r"|truncate\s+(?:table\s+)?(\w+)"
    r"|alter\s+table\s+\w+\s+rename\s+to\s+(\w+))", re.I)


def _least(*args):
    present = [a for a in args if a is not None]
    return min(present) if present else None


def _greatest(*args):
    present = [a for a in args if a is not None]
    return max(present) if present else None


def sorted_rows(rows) -> list[tuple]:
    """Rows as a sorted list, NULLs last within a column."""
    return sorted(
        (tuple(row) for row in rows),
        key=lambda row: [(v is None, 0 if v is None else v) for v in row],
    )


class SqliteOracle:
    """One in-memory sqlite database."""

    def __init__(self):
        self._conn = sqlite3.connect(":memory:", isolation_level=None)
        self._conn.create_function("least", -1, _least, deterministic=True)
        self._conn.create_function("greatest", -1, _greatest,
                                   deterministic=True)
        #: How many SELECT results and written tables were compared.
        self.compared = 0

    @staticmethod
    def translate(sql: str) -> list[str]:
        """The sqlite statements equivalent to one engine statement."""
        sql = _DISTRIBUTED_BY.sub("", sql)
        drop = _DROP.match(sql)
        if drop:
            guard = "if exists " if drop.group(1) else ""
            return [f"drop table {guard}{name.strip()}"
                    for name in drop.group(2).split(",")]
        truncate = _TRUNCATE.match(sql)
        if truncate:
            return [f"delete from {truncate.group(1)}"]
        return [sql]

    def execute(self, sql: str):
        """Run one engine statement; a SELECT's rows, else ``None``."""
        rows = None
        for statement in self.translate(sql):
            cursor = self._conn.execute(statement)
            if cursor.description is not None:
                rows = cursor.fetchall()
        return rows

    def create_function(self, name: str, fn) -> None:
        """Register a (vectorised) UDF as a strict scalar callback."""
        def scalar(*args):
            if any(a is None for a in args):
                return None
            return np.asarray(fn(*args)).ravel()[0].item()

        self._conn.create_function(name, -1, scalar, deterministic=True)

    def load(self, name: str, column_names: list[str], rows: list) -> None:
        """Create a table from rows (a dataset load is input, not a result:
        the tee copies what the engine stored)."""
        marks = ", ".join("?" * len(column_names))
        self._conn.execute(f"create table {name} ({', '.join(column_names)})")
        self._conn.executemany(f"insert into {name} values ({marks})", rows)

    def drop(self, name: str) -> None:
        self._conn.execute(f"drop table if exists {name}")

    def table_rows(self, name: str) -> list[tuple]:
        return self._conn.execute(f"select * from {name}").fetchall()

    def expect_equal(self, mine, theirs, sql: str) -> None:
        """One comparison: equal as sorted row lists, and counted."""
        assert sorted_rows(mine) == sorted_rows(theirs), \
            f"engine and sqlite disagree on: {sql}"
        self.compared += 1

    def close(self) -> None:
        self._conn.close()


def engine_table_rows(db, name: str) -> list[tuple]:
    """A stored engine table as Python rows (NULL cells are ``None``)."""
    table = db.table(name)
    return list(zip(*(table.column(column).to_list()
                      for column in table.column_names)))


def tee(db):
    """Attach an oracle to ``db``: every statement, bulk load, drop and
    function registration of this instance runs on sqlite too, and each
    SELECT result or written table must equal sqlite's as a sorted row
    list (``AssertionError`` otherwise).  Returns ``db``, with the oracle
    as ``db.oracle``; ``db.close()`` closes both."""
    oracle = SqliteOracle()
    execute, load_table, close = db.execute, db.load_table, db.close
    drop_table, create_function = db.drop_table, db.create_function

    def teed_execute(sql: str, label: str = ""):
        result = execute(sql, label=label)
        theirs = oracle.execute(sql)
        written = _WRITTEN.match(sql)
        if theirs is not None:
            mine = result.rows()
        elif written:
            name = next(group for group in written.groups() if group)
            mine = engine_table_rows(db, name)
            theirs = oracle.table_rows(name)
        else:
            return result
        oracle.expect_equal(mine, theirs, sql)
        return result

    def teed_load_table(name, columns, distributed_by=None):
        table = load_table(name, columns, distributed_by)
        oracle.load(name, table.column_names, engine_table_rows(db, name))
        return table

    def teed_drop_table(name, if_exists=False):
        drop_table(name, if_exists)
        oracle.drop(name)

    def teed_create_function(name, fn, *args, **kwargs):
        create_function(name, fn, *args, **kwargs)
        oracle.create_function(name, fn)

    def teed_close():
        close()
        oracle.close()

    db.execute = teed_execute
    db.close = teed_close
    db.load_table = teed_load_table
    db.drop_table = teed_drop_table
    db.create_function = teed_create_function
    db.oracle = oracle
    return db
