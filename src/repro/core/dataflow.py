"""Statement-level dataflow scheduling for the contraction drivers.

The randomised-contraction loop is a short program whose statements touch
a handful of tables in a fixed pattern: build representatives from the
edge table, contract the edges, compose the label table.  The dependency
structure between those statements is known statically — ConnectIt
(Dhulipala et al.) exploits exactly this to schedule connectivity work
asynchronously instead of in lockstep rounds.

:class:`DataflowScheduler` runs the loop as a dependency DAG over
*statement groups*:

* each submitted task is a list of SQL statements executed in order on one
  worker (a composition is ``CREATE TABLE … AS``/``DROP``/``RENAME`` — an
  atomic group, since splitting it would let a dependent observe the
  half-renamed state);
* every task carries **read and write table sets** derived from its parsed
  statements (:func:`statement_effects`): SELECT inputs are reads, created
  /dropped/renamed/truncated/inserted-into tables are writes;
* a task waits for every unfinished task whose writes intersect its reads
  or writes, and for every unfinished reader of a table it writes (the
  classic RAW/WAW/WAR hazards) — nothing else.  Independent statements,
  e.g. round *i*'s L-composition and round *i+1*'s reps-building and
  contraction, run concurrently on the database's
  :class:`~repro.sqlengine.mpp.SegmentPool`.

Because the hazard sets fully order every pair of conflicting statements,
the catalog state each statement observes — and therefore the final labels
— is bit-identical to the serial schedule; the engine's catalog, plan
cache and statistics locks (and the round-unique table/template names)
make the concurrent execution safe.

Two situations fall back to inline execution at ``submit()`` time, so the
serial peak-space profile and synchronous error behaviour are preserved:
a database whose pool has a single worker, and a database under a **space
budget** (overlap holds round *i*'s tables alive alongside round *i+1*'s,
which would make budget violations timing-dependent — the bench harness's
Table III/IV DNF machinery needs the serial profile).

Effects are derived from the plan cache's statement *templates* without
ever patching a template AST (patching a shared template here while a
worker thread executes a statement of the same template would violate the
cache's single-occupancy rule): a template's parameter-independent
read/write name sets — table names with their ``$k`` digit markers intact
— are computed once from the verified template's slot list and cached on
the entry, and each submitted statement instantiates them with its own
parameters in one cheap regex pass.  A warm round loop therefore derives
every statement's effect sets with zero parses (counted as
``effects_cache_hits``); a fresh parse remains only for first-seen
templates and uncacheable statements.
A small per-scheduler memo additionally keeps fixed-text statements
(drops, renames) free of even the normalisation pass.
"""

from __future__ import annotations

import dataclasses
import threading
from collections import deque
from typing import Callable, Optional, Union

from ..sqlengine import Database
from ..sqlengine.ast_nodes import (
    AlterRename,
    CreateTable,
    CreateTableAs,
    DropTable,
    InsertSelect,
    InsertValues,
    Statement,
    TableRef,
    TruncateTable,
)
from ..sqlengine.parser import parse_statement
from ..sqlengine.plancache import _MARKER_RE

#: How many distinct statement texts the effects memo retains.
_EFFECTS_MEMO_LIMIT = 256


def _collect_nodes(value: object, node_type: type, into: list) -> None:
    """Collect every dataclass node of ``node_type`` in an AST subtree."""
    if isinstance(value, node_type):
        into.append(value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        for field in dataclasses.fields(value):
            _collect_nodes(getattr(value, field.name), node_type, into)
    elif isinstance(value, (tuple, list)):
        for item in value:
            _collect_nodes(item, node_type, into)


def statement_effects(
    statement: Union[str, Statement]
) -> tuple[frozenset[str], frozenset[str]]:
    """Derive the (reads, writes) table-name sets of one SQL statement.

    Reads are every stored table the statement scans (the ``TableRef``
    nodes of its SELECT, if any); writes are the tables whose catalog
    entry the statement creates, fills, drops, renames or truncates.
    Names are normalised to the catalog's lower-case keys.
    """
    if isinstance(statement, str):
        statement = parse_statement(statement)
    refs: list[TableRef] = []
    _collect_nodes(statement, TableRef, refs)
    reads = {ref.name.lower() for ref in refs}
    writes: set[str] = set()
    if isinstance(statement, (CreateTableAs, CreateTable, InsertValues,
                              InsertSelect, TruncateTable)):
        writes.add(statement.name.lower())
    elif isinstance(statement, DropTable):
        writes.update(name.lower() for name in statement.names)
    elif isinstance(statement, AlterRename):
        writes.add(statement.old.lower())
        writes.add(statement.new.lower())
    return frozenset(reads), frozenset(writes)


def _template_effects(entry) -> tuple[tuple, tuple]:
    """Parameter-independent (reads, writes) name templates of one plan
    template: tuples of table-name strings that may contain ``$k`` digit
    markers.  Derived from the *verified* template AST plus its slot list
    — a parameterised name field's pristine template value lives in the
    slots (patching rewrites only the node), and a field without a slot is
    never patched — so no parse and no template mutation is needed.
    """
    slot_values = {
        (id(node), field_name): value
        for node, field_name, value in entry.slots
    }

    def field_template(node, field_name: str):
        return slot_values.get((id(node), field_name),
                               getattr(node, field_name))

    statement = entry.statement
    refs: list[TableRef] = []
    _collect_nodes(statement, TableRef, refs)
    reads = tuple(field_template(node, "name") for node in refs)
    writes: list = []
    if isinstance(statement, (CreateTableAs, CreateTable, InsertValues,
                              InsertSelect, TruncateTable)):
        writes.append(field_template(statement, "name"))
    elif isinstance(statement, DropTable):
        writes.extend(field_template(statement, "names"))
    elif isinstance(statement, AlterRename):
        writes.append(field_template(statement, "old"))
        writes.append(field_template(statement, "new"))
    return reads, tuple(writes)


def _instantiate_names(templates: tuple, params: list[str]) -> frozenset[str]:
    """Substitute a statement's parameters into cached name templates."""
    return frozenset(
        (_MARKER_RE.sub(lambda m: params[int(m.group(1))], name)
         if "$" in name else name).lower()
        for name in templates
    )


class StatementTask:
    """One scheduled group of SQL statements plus its dataflow state."""

    __slots__ = ("statements", "reads", "writes", "deps", "dependents",
                 "results", "error", "done", "started")

    def __init__(self, statements: list[tuple[str, str]],
                 reads: frozenset[str], writes: frozenset[str]):
        self.statements = statements
        self.reads = reads
        self.writes = writes
        #: Unfinished tasks this one must wait for (drained as they finish).
        self.deps: set["StatementTask"] = set()
        self.dependents: list["StatementTask"] = []
        self.results: list = []
        self.error: Optional[BaseException] = None
        self.done = threading.Event()
        self.started = False


class DataflowScheduler:
    """Run statement groups as a dependency DAG on the segment pool.

    ``submit()`` never blocks (in asynchronous mode): conflicting tasks are
    queued behind their hazards, independent ones start immediately, and
    the driver thread only stops at :meth:`wait`/:meth:`wait_all`.  At most
    ``task_slots - 1`` tasks execute at once, so a task that internally
    fans its kernels out over the pool always finds a free worker — the
    pool can never deadlock on its own parents.

    On a process-backed pool the statement groups themselves stay on the
    thread side (they are closures over the Database), but every eligible
    kernel inside them dispatches its partitions to worker *processes*
    (see :mod:`repro.sqlengine.parallel`), so overlapping groups — round
    *i*'s composition beside round *i+1*'s contraction — no longer share
    one GIL for their kernel work.  The one-worker reservation is kept on
    every backend: non-shareable payloads (text keys, exhausted shared
    memory) still fall back to thread-side ``pool.map`` fan-out, which
    must always find a free thread worker to drain its chunks.
    """

    def __init__(self, db: Database):
        pool = db.pool
        self._db = db
        budgeted = db.stats.space_budget_bytes is not None
        self._pool = pool if pool.n_workers > 1 and not budgeted else None
        self._lock = threading.Lock()
        self._unfinished: set[StatementTask] = set()
        self._ready: deque[StatementTask] = deque()
        self._running = 0
        self._max_running = max(1, pool.task_slots - 1) \
            if self._pool is not None else 1
        self._last_writer: dict[str, StatementTask] = {}
        self._readers: dict[str, set[StatementTask]] = {}
        self._failed: Optional[BaseException] = None
        self._effects: dict[str, tuple[frozenset[str], frozenset[str]]] = {}

    @property
    def asynchronous(self) -> bool:
        """True when submitted tasks can actually overlap on the pool."""
        return self._pool is not None

    # -- submission --------------------------------------------------------

    def _memo_effects(self, sql: str) -> tuple[frozenset[str], frozenset[str]]:
        effects = self._effects.get(sql)
        if effects is not None:
            self._db.stats.bump("effects_cache_hits")
            return effects
        effects = self._template_effects_for(sql)
        if effects is None:
            effects = statement_effects(sql)
        if len(self._effects) >= _EFFECTS_MEMO_LIMIT:
            self._effects.clear()
        self._effects[sql] = effects
        return effects

    def _template_effects_for(
        self, sql: str
    ) -> Optional[tuple[frozenset[str], frozenset[str]]]:
        """Derive effect sets from the plan cache's statement template, or
        ``None`` when the statement is uncacheable (the caller parses).
        A pre-existing template — any warm round loop — costs only the
        normalisation regex plus the marker substitution, no parse."""
        entry, params, pre_existing = self._db._plans.template_entry(sql)
        if entry is None:
            return None
        template = entry.effects
        if template is None:
            template = _template_effects(entry)
            entry.effects = template
        if pre_existing:
            self._db.stats.bump("effects_cache_hits")
        reads_t, writes_t = template
        return (_instantiate_names(reads_t, params),
                _instantiate_names(writes_t, params))

    def submit(
        self, statements: list, label: str = ""
    ) -> StatementTask:
        """Schedule one group of statements; returns its task handle.

        ``statements`` is a list of SQL strings or ``(sql, label)`` pairs
        executed in order on one worker.  A task whose hazards are all
        resolved starts immediately; otherwise it runs as its dependencies
        finish.  If an earlier task already failed, its error re-raises
        here (the driver must not keep extending a broken schedule).
        """
        pairs = [
            (sql, label) if isinstance(sql, str) else (sql[0], sql[1] or label)
            for sql in statements
        ]
        reads: set[str] = set()
        writes: set[str] = set()
        for sql, _ in pairs:
            stmt_reads, stmt_writes = self._memo_effects(sql)
            reads |= stmt_reads
            writes |= stmt_writes
        task = StatementTask(pairs, frozenset(reads), frozenset(writes))
        if self._pool is None:
            self._execute(task)
            task.done.set()
            if task.error is not None:
                raise task.error
            return task
        with self._lock:
            if self._failed is not None:
                raise self._failed
            touched = task.reads | task.writes
            for table in touched:
                writer = self._last_writer.get(table)
                if writer is not None and writer in self._unfinished:
                    task.deps.add(writer)
            for table in task.writes:
                for reader in self._readers.get(table, ()):
                    if reader in self._unfinished and reader is not task:
                        task.deps.add(reader)
            # Engagement telemetry: this task is independent of at least
            # one in-flight task, so the two overlap on the pool.  The
            # check runs against the transitive dependency closure — a
            # task is not "overlapped" with its own ancestors.
            closure: set[StatementTask] = set()
            frontier = list(task.deps)
            while frontier:
                dep = frontier.pop()
                if dep in closure:
                    continue
                closure.add(dep)
                frontier.extend(d for d in dep.deps if d in self._unfinished)
            if any(other not in closure for other in self._unfinished):
                self._db.stats.bump("dataflow_overlaps")
            for dep in task.deps:
                dep.dependents.append(task)
            self._unfinished.add(task)
            for table in task.writes:
                self._last_writer[table] = task
                self._readers.pop(table, None)
            for table in task.reads:
                self._readers.setdefault(table, set()).add(task)
            if not task.deps:
                self._ready.append(task)
            self._dispatch_locked()
        return task

    # -- execution ---------------------------------------------------------

    def _dispatch_locked(self) -> None:
        while self._ready and self._running < self._max_running:
            task = self._ready.popleft()
            task.started = True
            self._running += 1
            self._pool.submit(self._run_task, task)

    def _execute(self, task: StatementTask) -> None:
        try:
            for sql, label in task.statements:
                task.results.append(self._db.execute(sql, label=label))
        except BaseException as error:
            task.error = error

    def _run_task(self, task: StatementTask) -> None:
        self._execute(task)
        with self._lock:
            self._running -= 1
            self._finish_locked(task)
            self._dispatch_locked()
        task.done.set()

    def _retire_locked(self, task: StatementTask) -> None:
        """Drop a finished (or poisoned) task from every tracking
        structure — the single copy of the retire bookkeeping."""
        self._unfinished.discard(task)
        for table, writer in list(self._last_writer.items()):
            if writer is task:
                del self._last_writer[table]
        for readers in self._readers.values():
            readers.discard(task)

    def _finish_locked(self, task: StatementTask) -> None:
        if task.error is not None and self._failed is None:
            self._failed = task.error
        self._retire_locked(task)
        for dependent in task.dependents:
            dependent.deps.discard(task)
            if task.error is not None:
                # A broken dependency poisons the subtree: dependents see
                # the ancestor's error instead of running on a half-built
                # catalog.
                self._poison_locked(dependent, task.error)
            elif not dependent.deps and not dependent.started \
                    and dependent.error is None:
                self._ready.append(dependent)

    def _poison_locked(
        self, task: StatementTask, error: BaseException
    ) -> None:
        if task.started or task.error is not None:
            return
        task.started = True
        task.error = error
        self._retire_locked(task)
        for dependent in task.dependents:
            dependent.deps.discard(task)
            self._poison_locked(dependent, error)
        task.done.set()

    # -- completion --------------------------------------------------------

    def _help_once(self, waiting_for: StatementTask) -> bool:
        """Run one ready task on the calling (driver) thread.

        The worker cap keeps ``n_workers - 1`` tasks on the pool so a
        task's own kernel fan-out always finds a free worker; a waiting
        driver thread is idle capacity, so it executes queued tasks
        itself — on a two-worker pool this is what keeps the contraction
        genuinely overlapping the composition (the driver runs one while
        the worker runs the other), exactly like the pre-DAG composer.
        Prefers the task being waited for when it is ready.
        """
        with self._lock:
            if waiting_for.done.is_set() or not self._ready:
                return False
            if waiting_for in self._ready:
                self._ready.remove(waiting_for)
                helper = waiting_for
            else:
                helper = self._ready.popleft()
            helper.started = True
            self._running += 1
        self._run_task(helper)
        return True

    def wait(self, task: StatementTask) -> list:
        """Block until one task finishes; returns its per-statement
        :class:`~repro.sqlengine.database.ResultSet` list (re-raising the
        task's — or a poisoning ancestor's — error).  While blocked, the
        driver thread executes queued ready tasks itself (see
        :meth:`_help_once`)."""
        while not task.done.is_set():
            if not self._help_once(task):
                task.done.wait()
        if task.error is not None:
            raise task.error
        return task.results

    def wait_all(self) -> None:
        """Drain every submitted task, re-raising the first error."""
        while True:
            with self._lock:
                pending = next(iter(self._unfinished), None)
                first_error = self._failed
            if pending is None:
                if first_error is not None:
                    raise first_error
                return
            pending.done.wait()

    def drain(self) -> None:
        """Best-effort wait for error paths (the original error wins)."""
        try:
            self.wait_all()
        except Exception:
            pass
