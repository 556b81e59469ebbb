"""Statement execution: running compiled physical plans.

Planning and execution are separate layers.  The planner
(:mod:`repro.sqlengine.physicalplan`) turns a parsed statement into a
:class:`~repro.sqlengine.physicalplan.PhysicalPlan` — resolved FROM items,
predicate classification (per-table filters pushed below the joins,
equi-join edges, residual post-join filters), the greedy join order the
paper credits for much of the in-database performance, per-step column
gathers, compiled distribution sets for the motion verdicts, and fused
pipelines.  The executor here runs those plans: per statement *template*
the plan is compiled once, cached next to the template's AST, cheaply
re-validated against table schemas, and re-executed with only parameter
patching — the per-round statements of the reproduced algorithms stop
paying any planning cost.

The executor reads a core's shape off its
:class:`~repro.sqlengine.physicalplan.CorePlan` and decides none of it:
the output's storage names and display names, each output's source (a
qualified frame column, or an expression it evaluates), the column the
result is distributed on, the GROUP BY keys' qualified names and the
aggregate nodes.  The compiler has already rejected, once per template, a
GROUP BY key that is not a column, ``*`` beside GROUP BY and a column read
outside the GROUP BY keys and the aggregates; the plan cache's checks
re-validate every compiled name after each parameter patch.

Join execution is *index-aware*.  Base-table frames carry provenance
(``Frame.sources``): as long as a frame is an unfiltered scan of a stored
table, its columns are traceable back to that table, and a join's
single-column build side consults the table's index cache
(:meth:`~repro.sqlengine.table.Table.index_for`).  A cached
:class:`~repro.sqlengine.operators.KeyIndex` hands the join route the
build side's row count, uniqueness, sortedness and min/max — no array —
so the second and third join against the same table — the paper's
per-round ``reps`` pattern — read their route off five numbers: a
``reps.v`` that fills its domain takes ``dense-offset`` and builds no
table, and a sorted build side is searched where it lies.  A GROUP BY
reads no index: it picks its layout off the key column it is handed (see
:meth:`Executor._aggregate`).

How a join runs is decided, and run, in one call,
:func:`~repro.sqlengine.operators.join_rows`: its route's kernel, called
once over every probe row.  The executor runs one statement at a time,
on the calling thread, and starts no thread; nothing it does depends on
the host's core count.

Every join runs through one runner, the **join chain** (see
:class:`_JoinChain`): a join feeding another join's build side never
materialises its output — the executor keeps per-binding row-index maps,
composes them through each join's output indices, and gathers every
downstream-consumed column exactly once, whether it is the next join's
key or part of the chain-final frame.
A single join is the chain at length one.  A join that keeps every probe
row once, in order — every join of the contraction loop, where each edge
or label row finds its one ``reps`` row — returns no left map at all
(``None``), so the maps the chain already holds stand and the probe
side passes through: its columns reach the output as they are, not
gathered, down to the stored table's own column objects.
LEFT OUTER JOINs stream inside the chain too: their null-extended probe
rows ride the composed maps as ``NO_MATCH`` validity markers that only
materialisation resolves into null masks, so an outer join can sit in any
chain position.  Projection and GROUP BY read the one frame the chain
materialises; :meth:`Executor._aggregate` is the only GROUP BY runner.
A residual WHERE selects rows by position — one ``flatnonzero`` and a
gather per column, cheaper than compressing each column by mask.

A fused join→DISTINCT (the contraction's contract, ``CorePlan.fused``)
whose columns pack into one word never materialises the chain: it runs
as one loop over blocks of :data:`BLOCK_ROWS` chain rows
(:meth:`Executor._blocked_distinct`).  Each block gathers its columns
through the composed maps, evaluates the WHERE over them and packs the
words of the rows it keeps — at their positions below
:data:`~repro.sqlengine.operators.DISTINCT_MASK_MIN_KEPT` (3/4) of the
block kept, by one mask compress at or above it (a G(500k, 1M) contract
keeps 84–98% of its rows, a path's ~50%) — into one word buffer, the
only array of the chain's length; the sort, dedup and unpack run once,
after the last block has released the chain's maps.  Any other fused
DISTINCT — NULL-bearing, text, float or wider-than-63-bit keys, a
LEFT-joined binding with null-extended rows — materialises, filters and
de-duplicates its frame.  Either way the DISTINCT's input relation, its
row order and the motion it is charged are the filtered relation's.

The executor also decides **which columns are dictionary-encoded** (the
second physical form of :class:`~repro.sqlengine.types.Column`), and it is
the only layer that does.  Two rules create the form, each in one
function.  The first (:func:`_encoded_source`): the gather of a stored
NULL-free int64 column through the build side of an inner join, or a LEFT
JOIN none of whose gathered rows is null-extended, with at least as many
output rows as build rows — ``reps.rep`` fanned out over the edge table,
or composed into the label table while no component has finished — reads
an encoding of that column that its table caches like an index, and
gathers codes.  A gather with a null-extended row reads plain values under
a null mask: the encoded form stays NULL-free.  The second
(:func:`_union_scan`): a UNION ALL whose arms are unfiltered scans of one
stored table stacks a **joint** encoding of the NULL-free int64 columns
each output column draws from — one dictionary over all of them, cached
on the table the same way — so the setup query stores the doubled edge
table over one vertex dictionary and round 1 runs on codes like every
later round.  ``take`` carries the form,
``CREATE TABLE AS`` stores it, and every consumer recognises it by the
columns it is handed, not by a flag: joins of two columns over one
dictionary join their codes, ``v1 != r2.rep``
compares codes (:mod:`~repro.sqlengine.expressions`), an immutable UDF is
applied to the dictionary, once for every call over it
(:mod:`~repro.sqlengine.functions`), DISTINCT
packs and sorts the codes, GROUP BY reduces that output where it lies.  The rules
read a join's row counts, whether a gathered row is null-extended and a
column's provenance — nothing about how the statement runs — so the form
is a deterministic function of the statement and its input relation.  A
DISTINCT's row order does not depend on the form: **it is ascending key
order.**  Space, motion and written bytes charge 8 bytes per cell in
either form.  Dense GROUP BY keys
that arrive unsorted — round 1's vertex codes — are reduced by direct
addressing (:func:`~repro.sqlengine.operators.direct_group_rows`) through
the one reducer the other layouts call.

MPP accounting happens where a real MPP executor would move data: a join or
aggregation whose input is not already distributed on its key charges a
redistribution (or a broadcast for small inputs) to the engine statistics.
Distribution is tracked as a *set* of equivalent column names, compiled
into the plan: after an inner join on ``l.k = r.v`` the result is
hash-distributed on the common key value, so both ``l.k`` and ``r.v`` count
as its distribution columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .ast_nodes import (
    Aggregate,
    AlterRename,
    ColumnRef,
    CreateTable,
    CreateTableAs,
    DropTable,
    Expression,
    InsertSelect,
    InsertValues,
    Select,
    Statement,
    TruncateTable,
)
from .errors import CatalogError, ExecutionError, PlanError
from .expressions import AMBIGUOUS, Environment, evaluate, truth_values
from .functions import FunctionRegistry
from .mpp import Cluster
from .operators import (
    JOIN_ROUTES,
    NO_MATCH,
    DirectGroups,
    KeyIndex,
    _reduce_slice,
    direct_group_rows,
    distinct_rows,
    group_rows,
    join_rows,
    kept_rows,
    packed_distinct,
    packed_keys,
    pad_left_outer,
    run_starts,
)
from .physicalplan import (
    CorePlan,
    JoinStepPlan,
    PhysicalPlan,
    ScanPlan,
    SelectPlan,
    compile_statement,
    plan_is_valid,
)
from .stats import EngineStats
from .table import Catalog, Table
from .types import BOOL, FLOAT64, INT64, Column, dtype_for
from .types import _FIXED_WIDTH

#: Safety valve: a join step with no usable equality predicate falls back to
#: a cartesian product only below this many output rows.
MAX_CARTESIAN_ROWS = 1 << 21

#: Join chain rows per block of a fused join→DISTINCT.  The contract's
#: median over warm RC runs at 8192 / 16384 / 32768 / 65536 rows took
#: 117.2 / 109.2 / 109.6 / 105.8 ms on G(500k, 1M) and 56.5 / 52.3 / 51.7
#: / 50.6 ms on path(500k), deterministic-space (2-vCPU Xeon); the
#: deterministic-space ratios of ``tests/test_working_memory.py`` (dense,
#: gnm, path) read 1.381 / 1.309 / 1.435 at 16384, 1.614 / 1.476 / 1.666
#: at 32768.
BLOCK_ROWS = 1 << 14


@dataclass
class Relation:
    """An executed query result: ordered named columns.

    ``names`` are unique storage keys into ``columns``; ``display_names``
    are the user-visible column names, which SQL allows to repeat in a
    plain SELECT (``select a.w, b.w ...``).  They differ only when a
    projection produced duplicates.
    """

    names: list[str]
    columns: dict[str, Column]
    distribution: Optional[str] = None
    display_names: Optional[list[str]] = None

    def __post_init__(self) -> None:
        if self.display_names is None:
            self.display_names = list(self.names)

    @property
    def n_rows(self) -> int:
        if not self.names:
            return 0
        return len(self.columns[self.names[0]])

    def column(self, name: str) -> Column:
        try:
            return self.columns[name]
        except KeyError:
            raise CatalogError(f"result has no column {name!r}")

    def rows(self, limit: Optional[int] = None) -> list[tuple]:
        """Materialise as Python row tuples (small results only).

        ``limit`` caps the number of rows materialised — rendering paths
        that show only the head of a result should pass it rather than
        paying for full-column Python list conversion.
        """
        if limit is not None and limit < self.n_rows:
            head = {n: self.columns[n].take(np.arange(limit)) for n in self.names}
            lists = [head[n].to_list() for n in self.names]
        else:
            lists = [self.columns[n].to_list() for n in self.names]
        return list(zip(*lists)) if lists else []

    def byte_size(self) -> int:
        return sum(self.columns[n].byte_size() for n in self.names)


@dataclass
class Frame:
    """An intermediate relation during FROM/JOIN processing.

    ``sources`` is column provenance: while the frame is an unfiltered scan
    of a stored table, each qualified column name maps to its
    ``(table, column_name)`` origin, which lets keyed operators consult the
    table's index cache.  Any row-reordering operation (filter, gather,
    join) drops provenance, since cached indexes are positional.
    """

    columns: dict[str, Column]  # key: "binding.column"
    bindings: dict[str, list[str]]  # binding -> column names, in order
    length: int
    distribution: frozenset[str] = frozenset()  # qualified names, value-equal
    sources: dict[str, tuple] = field(default_factory=dict)

    def byte_size(self) -> int:
        return sum(col.byte_size() for col in self.columns.values())

    def env_columns(self) -> dict[str, Column]:
        """Qualified plus bare name bindings (ambiguous bare names marked)."""
        env: dict[str, Column] = dict(self.columns)
        seen: dict[str, int] = {}
        for binding, cols in self.bindings.items():
            for col in cols:
                seen[col] = seen.get(col, 0) + 1
        for binding, cols in self.bindings.items():
            for col in cols:
                if seen[col] == 1:
                    env[col] = self.columns[f"{binding}.{col}"]
                else:
                    env[col] = AMBIGUOUS
        return env

    def column(self, qualified: str) -> Column:
        """One column by qualified name — the accessor a join input is
        read through, which a :class:`_JoinChain` answers lazily."""
        return self.columns[qualified]

    def take(self, rows: np.ndarray) -> "Frame":
        """The frame's ``rows``, every column gathered by position."""
        columns = {name: col.take(rows) for name, col in self.columns.items()}
        return Frame(columns, self.bindings, int(rows.shape[0]),
                     self.distribution)


def _gather_padded(col: Column, safe_idx: np.ndarray, unmatched: np.ndarray,
                   build_len: int, out_len: int) -> Column:
    """Gather one build-side column of a LEFT OUTER JOIN output.

    ``safe_idx`` is the zero-clamped gather map and ``unmatched`` marks the
    null-extended rows whose markers OR into the null mask; an empty build
    side pads an all-NULL column of the scanned type.
    """
    if build_len == 0:
        return Column.nulls(out_len, col.sql_type)
    gathered = col.take(safe_idx)
    return Column(gathered.values, gathered.sql_type,
                  gathered.null_mask() | unmatched)


def _encoded_source(frame: Frame, qualified: str) -> Column:
    """The column a build-side gather of an *expanding* join reads — an
    inner join, or a LEFT JOIN none of whose gathered rows is
    null-extended, with at least as many output rows as its build side
    has.

    This is where most dictionary-encoded columns are born (the rest in
    :func:`_union_scan`, the setup's stacked scans).  A stored NULL-free
    int64 column is encoded once (sorted distinct values plus a code per
    row, cached on its table like an index, so every statement gathering
    it shares one dictionary object) and the output gathers its codes: the
    encoding is paid on the per-vertex side and every later statement's
    joins, comparisons, DISTINCT and GROUP BY over the per-edge column run
    on dense integers.  There is no size gate — encoding wherever the rule
    allows wins from G(500, 1000) (1.07x per run) to G(500k, 1M) (2.3x).
    The rule reads one join's row counts, whether a gathered row is
    null-extended, and the column's provenance — never a switch — so
    which columns are encoded is a function of the statement and its
    input.  Anything else (text, NULLs, a subquery's or a filtered scan's
    column) is returned as it is.
    """
    source = frame.sources.get(qualified)
    encoded = None
    if source is not None:
        table, column_name = source
        encoded = table.encoded_column(column_name)
    return frame.columns[qualified] if encoded is None else encoded


def _union_scan(
    plan: SelectPlan, catalog: Catalog
) -> Optional[tuple[Table, list[tuple[str, ...]]]]:
    """The stored table every UNION ALL arm of ``plan`` is an unfiltered
    scan of, and the columns each arm projects, in order — else ``None``.

    This is where the second rule creating encoded columns reads its
    input: each output column of such a UNION ALL whose arms draw it from
    NULL-free int64 columns stacks their **joint encoding**
    (:meth:`~repro.sqlengine.table.Table.joint_encoding`) — one dictionary
    over every column drawn, cached on the table like
    :func:`_encoded_source`'s — and :meth:`Column.concat` then stacks
    codes.  The paper's setup query, ``select v1, v2 from E union all
    select v2, v1 from E``, so stores the doubled edge table over one
    vertex dictionary, and round 1 of every contraction joins, groups and
    evaluates h on codes, as later rounds do.  Like the rule for joins it
    reads the plan's provenance alone: a filtered, joined, grouped or
    DISTINCT arm, a subquery, an expression, or arms over two tables
    leave the UNION ALL plain."""
    table = None
    arms = []
    for core_plan in plan.cores:
        core = core_plan.core
        if (
            len(core_plan.scans) != 1 or core.joins
            or core.where is not None or core.distinct
            or core_plan.is_aggregate
        ):
            return None
        scan = core_plan.scans[0]
        if scan.subplan is not None:
            return None
        refs = [item.expr for item in core.items]
        if not all(isinstance(ref, ColumnRef) and ref.name in scan.columns
                   for ref in refs):
            return None
        scanned = catalog.get(scan.item.name)
        if table is not None and scanned is not table:
            return None
        table = scanned
        arms.append(tuple(ref.name for ref in refs))
    return table, arms


class _JoinChain:
    """A virtual frame over a pipeline of one or more joins — the only
    join runner.

    Rather than materialise every join step's output — gathering each
    surviving column of both inputs at every step — the chain keeps only
    a per-binding *row-index map* into the base frames and
    composes it through each join's output indices (``map ∘ l_idx``).  A
    column is gathered exactly once, when something downstream finally
    consumes it: the next join's key or the chain-final materialisation.
    A join that keeps every probe row once, in order, hands over no
    ``l_idx`` (``None``): the maps stand, and a binding still mapped by
    ``None`` passes its base frame's column objects through ungathered.

    LEFT OUTER JOINs stream through the chain too: a binding that entered
    via an outer join carries ``NO_MATCH`` entries in its row map (one per
    null-extended probe row).  The validity information composes with the
    maps for free — later joins gather the ``NO_MATCH`` markers like any
    other entry — and only materialisation resolves it, gathering through a
    zero-clamped map and OR-ing the marker positions into the column's null
    mask (:func:`_gather_padded`).

    The chain duck-types the ``Frame`` surface the join-step runner reads
    of either input — ``column()`` (lazy), ``sources``, ``length``,
    ``distribution`` and ``byte_size()`` — so kernel dispatch, index-cache
    consultation and motion accounting need not know which side they are
    handed.  ``byte_size()`` is the motion model of the paper's Table V: a
    join input moves at the size of the relation the previous join
    *produced*, so it reports byte-for-byte the size of the frame
    :meth:`materialise` would gather at this point — fixed-width columns
    at width × rows plus the gathered null mask, text columns at their
    exact per-row byte
    lengths gathered through the composed map (the base column's row widths
    are computed once per chain and re-gathered per step).

    Nothing the chain holds points back at it, so it — with its edge-length
    row maps and its references to the scanned frames — is freed by
    reference count the moment the statement's FROM pipeline returns.
    """

    __slots__ = ("_frames", "_maps", "_outer", "_gather_cache", "_base",
                 "_surviving", "_text_widths", "_expanded",
                 "length", "distribution", "n_joins", "n_outer")

    def __init__(self, frame: Frame):
        #: The bindings whose join expanded them: their columns are
        #: gathered through :func:`_encoded_source` unless a row they
        #: gather is null-extended.
        self._expanded: set[str] = set()
        self._frames: dict[str, Frame] = {b: frame for b in frame.bindings}
        self._maps: dict[str, Optional[np.ndarray]] = {
            b: None for b in frame.bindings
        }
        #: Bindings whose row map may hold NO_MATCH (joined via LEFT JOIN).
        self._outer: set[str] = set()
        #: Per-binding (safe map, invalid mask), computed once per applied
        #: join and shared by every column gather and byte_size pass.
        self._gather_cache: dict[str, tuple] = {}
        self._base = frame
        #: The columns the latest join's output keeps (what
        #: :meth:`materialise` would gather and :meth:`byte_size` prices).
        self._surviving = list(frame.columns)
        #: Per-row byte widths of text columns, cached per qualified name.
        self._text_widths: dict[str, np.ndarray] = {}
        self.length = frame.length
        self.distribution = frame.distribution
        self.n_joins = 0
        self.n_outer = 0

    @property
    def sources(self) -> dict:
        """Column provenance: the base frame's while no join ran (a scan's
        cached indexes stay reachable), empty afterwards — a join reorders
        rows, and cached indexes are positional."""
        return self._base.sources if self.n_joins == 0 else {}

    def _gather_state(
        self, binding: str
    ) -> tuple[Frame, Optional[np.ndarray], Optional[np.ndarray]]:
        """(frame, zero-clamped gather map, null-extension mask) for one
        binding; the mask is ``None`` when every mapped row is valid.
        Cached per binding until the next applied join."""
        frame = self._frames[binding]
        row_map = self._maps[binding]
        if row_map is None or binding not in self._outer:
            return frame, row_map, None
        state = self._gather_cache.get(binding)
        if state is None:
            invalid = row_map == NO_MATCH
            if invalid.any():
                state = (np.where(invalid, 0, row_map), invalid)
            else:
                state = (row_map, None)
            self._gather_cache[binding] = state
        return frame, state[0], state[1]

    def source(self, qualified: str) -> Optional[Column]:
        """The column the chain gathers ``qualified`` from through its map
        (:func:`_encoded_source`'s when its binding's join expanded it),
        or ``None`` when a row it gathers is null-extended."""
        binding = qualified.split(".", 1)[0]
        frame, safe_map, invalid = self._gather_state(binding)
        if invalid is not None:
            return None
        if safe_map is not None and binding in self._expanded:
            return _encoded_source(frame, qualified)
        return frame.columns[qualified]

    def column(self, qualified: str, rows: Optional[slice] = None) -> Column:
        """One column of the chain's output, at its ``rows`` (``None``:
        all of them)."""
        binding = qualified.split(".", 1)[0]
        frame, safe_map, invalid = self._gather_state(binding)
        col = frame.columns[qualified]
        if invalid is not None:
            if rows is not None:
                safe_map, invalid = safe_map[rows], invalid[rows]
            return _gather_padded(col, safe_map, invalid, frame.length,
                                  invalid.shape[0])
        if safe_map is None:
            return col if rows is None else col.take(rows)
        if binding in self._expanded:
            col = _encoded_source(frame, qualified)
        return col.take(safe_map if rows is None else safe_map[rows])

    def _text_row_widths(self, qualified: str, col: Column) -> np.ndarray:
        """Exact byte length of each base row of a text column (the same
        per-row charge :meth:`Column.byte_size` sums), cached per chain."""
        widths = self._text_widths.get(qualified)
        if widths is None:
            widths = np.fromiter(
                (len(str(v)) for v in col.values), dtype=np.int64,
                count=len(col),
            )
            self._text_widths[qualified] = widths
        return widths

    def byte_size(self) -> int:
        if self.n_joins == 0:
            return self._base.byte_size()
        total = 0
        for qualified in self._surviving:
            binding = qualified.split(".", 1)[0]
            frame, safe_map, invalid = self._gather_state(binding)
            col = frame.columns[qualified]
            if invalid is not None and frame.length == 0:
                total += Column.nulls(self.length, col.sql_type).byte_size()
                continue
            width = _FIXED_WIDTH.get(col.sql_type)
            if width is None:
                widths = self._text_row_widths(qualified, col)
                gathered = widths if safe_map is None else widths[safe_map]
                total += int(gathered.sum()) + self.length
            else:
                total += width * self.length
            if invalid is not None or (
                col.mask is not None
                and (safe_map is None or bool(col.mask[safe_map].any()))
            ):
                total += self.length
        return total

    def apply(self, l_idx: Optional[np.ndarray], r_idx: np.ndarray,
              right: Frame, step: JoinStepPlan) -> None:
        """Fold one executed join step into the chain's row maps.

        ``step.outer`` marks a LEFT JOIN: ``r_idx`` then carries
        ``NO_MATCH`` for null-extended probe rows, which the right
        bindings' maps keep as validity markers.  ``l_idx`` always holds
        valid chain rows, so composing the existing maps needs no special
        casing — a NO_MATCH already present in an earlier outer binding's
        map is gathered through like any other entry.  ``l_idx`` is ``None`` when the join
        kept every chain row once, in order: the existing maps stand as
        they are, and a LEFT JOIN that did so null-extended nothing.
        """
        if l_idx is not None:
            for binding, row_map in self._maps.items():
                self._maps[binding] = (l_idx if row_map is None
                                       else row_map[l_idx])
        for binding in right.bindings:
            self._frames[binding] = right
            self._maps[binding] = r_idx
            if step.outer and l_idx is not None:
                self._outer.add(binding)
            if r_idx.shape[0] >= right.length:
                self._expanded.add(binding)
        self._gather_cache.clear()
        self.length = int(r_idx.shape[0])
        self.distribution = step.out_distribution
        self._surviving = list(step.left_gather) + list(step.right_gather)
        self.n_joins += 1
        if step.outer:
            self.n_outer += 1

    def materialise(self, step, rows: Optional[slice] = None) -> Frame:
        """The frame ``step``, the latest applied join, produces — at its
        ``rows``: a block of a fused join→DISTINCT, or all of them — each
        surviving column gathered once, through the composed map."""
        columns = {name: self.column(name, rows) for name in self._surviving}
        return Frame(columns, step.out_bindings,
                     self.length if rows is None
                     else len(range(*rows.indices(self.length))),
                     self.distribution)

    def blocks(self, step, size: int):
        """The frame ``step`` produces, ``size`` rows at a time, in order.
        Read once: past the last block the chain drops its row maps and
        frames, freed then though its reader still holds the chain."""
        for start in range(0, self.length, size):
            yield self.materialise(step, None if size >= self.length
                                   else slice(start, start + size))
        self._frames.clear()
        self._maps.clear()
        self._gather_cache.clear()


class Executor:
    """Executes parsed statements against a catalog."""

    def __init__(
        self,
        catalog: Catalog,
        registry: FunctionRegistry,
        cluster: Cluster,
        stats: EngineStats,
    ):
        self.catalog = catalog
        self.registry = registry
        self.cluster = cluster
        self.stats = stats

    def _stored_index(
        self, frame: Frame, qualified_name: str
    ) -> Optional[KeyIndex]:
        """Fetch, or build and cache, the index of the stored column behind
        a join's build-side key, if there is one.  The statement that
        builds an index counts the miss; later ones count hits."""
        source = frame.sources.get(qualified_name)
        if source is None:
            return None
        table, column_name = source
        index, built = table.index_for(column_name)
        if built:
            self.stats.bump("index_cache_misses")
        elif index is not None:
            self.stats.bump("index_cache_hits")
        return index

    def _join_keys(self, frame, names: list[str]) -> list[Column]:
        """One side's key columns for a join kernel.  A stored column that
        an earlier statement's gather left an encoding of (see
        :func:`_encoded_source`) joins in that form: the composition joins
        ``reps.rep``, which the round's relabelling encoded, on its codes
        instead of probing sparse values.  A join's row pairs do
        not depend on its keys' form, so — unlike the rule that *creates*
        encodings — this one may read the cache."""
        keys = [frame.column(name) for name in names]
        if len(keys) == 1 and keys[0].codes is None:
            source = frame.sources.get(names[0])
            if source is not None:
                table, column_name = source
                encoded = table.cached_encoding(column_name)
                if encoded is not None:
                    keys[0] = encoded
        return keys

    # ------------------------------------------------------------------
    # operator kernels — overridable execution strategy
    #
    # The default engine runs each kernel once, over whole columns (an MPP
    # database's co-located, vectorised execution).
    # The Spark-SQL comparison backend (repro.spark) overrides these with
    # partitioned, shuffle-everything equivalents.
    # ------------------------------------------------------------------

    def _dispatch_join(
        self,
        left_outer: bool,
        left_keys: list[Column],
        right_keys: list[Column],
        right: Frame,
        right_names: list[str],
        note: list,
    ) -> tuple[Optional[np.ndarray], np.ndarray]:
        """Inner or left-outer join of the build frame ``right`` on its
        columns ``right_names``.  A single-column build side consults —
        and on a miss populates — its table's index cache.  Left rows are
        ``None`` when the join kept every probe row once, in order (see
        :func:`~repro.sqlengine.operators.join_rows`)."""
        right_index = self._stored_index(right, right_names[0]) \
            if len(right_names) == 1 else None
        kind, l_idx, r_idx = join_rows(left_keys, right_keys, right_index)
        note.append(JOIN_ROUTES[kind])
        if left_outer:
            return pad_left_outer(l_idx, r_idx, len(left_keys[0]))
        return l_idx, r_idx

    def _group_kernel(
        self, key_columns: list[Column]
    ) -> tuple[np.ndarray, np.ndarray]:
        return group_rows(key_columns)

    def _distinct_kernel(self, columns: list[Column]) -> list[Column]:
        """The distinct rows of ``columns``, in ascending key order (the
        kernel's contract; overriding executors must keep it)."""
        return distinct_rows(columns)

    # ------------------------------------------------------------------
    # statement dispatch
    # ------------------------------------------------------------------

    def execute(
        self, statement: Statement, plan_slot=None
    ) -> tuple[Optional[Relation], int]:
        """Run one statement; returns (result relation or None, rowcount).

        ``plan_slot`` is the statement's plan-cache template entry (if
        any); the compiled physical plan is cached on it and reused while
        its validity checks hold.
        """
        plan = self._physical_plan(statement, plan_slot)
        select_plan = plan.select_plan if plan is not None else None
        if isinstance(statement, Select):
            relation = self.run_select(statement, select_plan)
            return relation, relation.n_rows
        if isinstance(statement, CreateTableAs):
            return None, self._create_table_as(statement, select_plan)
        if isinstance(statement, CreateTable):
            return None, self._create_table(statement)
        if isinstance(statement, InsertValues):
            return None, self._insert_values(statement)
        if isinstance(statement, InsertSelect):
            return None, self._insert_select(statement, select_plan)
        if isinstance(statement, DropTable):
            return None, self._drop(statement)
        if isinstance(statement, AlterRename):
            self.catalog.rename(statement.old, statement.new)
            return None, 0
        if isinstance(statement, TruncateTable):
            return None, self._truncate(statement)
        raise ExecutionError(f"cannot execute {type(statement).__name__}")

    def _physical_plan(
        self, statement: Statement, plan_slot
    ) -> Optional[PhysicalPlan]:
        """Fetch the cached physical plan for a statement, or compile one.

        Plans attach to the statement's template entry in the plan cache;
        a cached plan is reused after a cheap validity check (bindings and
        table schema fingerprints), re-compiled when it fails.
        """
        if not isinstance(statement, (Select, CreateTableAs, InsertSelect)):
            return None
        if plan_slot is not None:
            cached = getattr(plan_slot, "physical", None)
            if cached is not None and cached.statement is statement:
                if plan_is_valid(cached, self.catalog):
                    self.stats.bump("physical_plan_hits")
                    return cached
                self.stats.bump("physical_plan_invalidations")
                plan_slot.physical = None
        plan = compile_statement(statement, self.catalog)
        if plan is None:
            return None
        self.stats.bump("physical_plan_misses")
        if plan_slot is not None and plan_slot.statement is statement:
            plan_slot.physical = plan
        return plan

    # ------------------------------------------------------------------
    # DDL / DML
    # ------------------------------------------------------------------

    def _create_table_as(
        self, statement: CreateTableAs, plan: Optional[SelectPlan] = None
    ) -> int:
        relation = self.run_select(statement.select, plan)
        names = relation.display_names
        if len(set(names)) != len(names):
            raise PlanError(
                f"cannot create table {statement.name!r}: duplicate column names {names}"
            )
        distribution = statement.distributed_by
        if distribution is not None and distribution not in names:
            raise PlanError(
                f"distribution column {distribution!r} is not in the select list"
            )
        if (
            distribution is not None
            and relation.n_rows > 0
            and relation.distribution != distribution
        ):
            # Result rows must be re-hashed onto the new distribution.
            self.stats.record_redistribution(relation.byte_size())
        stored = {
            display: relation.columns[key]
            for display, key in zip(names, relation.names)
        }
        table = Table(statement.name.lower(), stored, distribution)
        self.catalog.put(table)
        self.stats.record_table_created(table.byte_size(), table.n_rows)
        return table.n_rows

    def _create_table(self, statement: CreateTable) -> int:
        columns = {}
        for name, sql_type in statement.columns:
            columns[name] = Column(np.empty(0, dtype=dtype_for(sql_type)), sql_type)
        table = Table(statement.name.lower(), columns, statement.distributed_by)
        self.catalog.put(table)
        self.stats.record_table_created(0, 0)
        return 0

    def _insert_values(self, statement: InsertValues) -> int:
        table = self.catalog.get(statement.name)
        target_columns = statement.columns or tuple(table.column_names)
        if set(target_columns) != set(table.column_names):
            raise PlanError(
                f"INSERT must cover all columns of {statement.name!r} "
                f"({table.column_names})"
            )
        env = Environment({}, 1, self.registry)
        per_column: dict[str, list] = {name: [] for name in target_columns}
        for row in statement.rows:
            if len(row) != len(target_columns):
                raise PlanError("INSERT row arity mismatch")
            for name, expr in zip(target_columns, row):
                value = evaluate(expr, env)
                per_column[name].append(value.to_list()[0])
        columns = {}
        for name in target_columns:
            existing = table.column(name)
            raw = per_column[name]
            mask = np.array([v is None for v in raw], dtype=bool)
            filler = 0 if existing.sql_type in (INT64, FLOAT64, BOOL) else ""
            values = np.array(
                [filler if v is None else v for v in raw],
                dtype=dtype_for(existing.sql_type),
            )
            columns[name] = Column(values, existing.sql_type, mask if mask.any() else None)
        added = table.append(columns)
        self.stats.record_rows_appended(added, len(statement.rows))
        return len(statement.rows)

    def _insert_select(
        self, statement: InsertSelect, plan: Optional[SelectPlan] = None
    ) -> int:
        table = self.catalog.get(statement.name)
        relation = self.run_select(statement.select, plan)
        target_columns = list(statement.columns or table.column_names)
        if len(relation.names) != len(target_columns):
            raise PlanError("INSERT ... SELECT arity mismatch")
        columns = {}
        for target, source in zip(target_columns, relation.names):
            columns[target] = relation.columns[source]
        added = table.append(columns)
        self.stats.record_rows_appended(added, relation.n_rows)
        return relation.n_rows

    def _drop(self, statement: DropTable) -> int:
        for name in statement.names:
            if statement.if_exists and name not in self.catalog:
                continue
            table = self.catalog.drop(name)
            self.stats.record_table_dropped(table.byte_size())
        return 0

    def _truncate(self, statement: TruncateTable) -> int:
        table = self.catalog.get(statement.name)
        freed = table.truncate()
        self.stats.record_table_dropped(freed)
        return 0

    # ------------------------------------------------------------------
    # SELECT pipeline
    # ------------------------------------------------------------------

    def run_select(
        self, select: Select, plan: Optional[SelectPlan] = None
    ) -> Relation:
        if plan is None or plan.select is not select:
            plan = compile_statement(select, self.catalog).select_plan
        if len(plan.cores) == 1:
            return self._run_core(plan.cores[0])
        # UNION ALL arm arity was validated at compile time
        # (physicalplan.compile_select), so no arm runs on a mismatch.
        relations = [self._run_core(core) for core in plan.cores]
        scanned = _union_scan(plan, self.catalog)
        first = relations[0]
        columns = {}
        for position, name in enumerate(first.names):
            parts = [rel.columns[rel.names[position]] for rel in relations]
            if scanned is not None:
                table, arms = scanned
                drawn = [arm[position] for arm in arms]
                encoded = table.joint_encoding(drawn)
                if encoded is not None:
                    parts = [encoded[column_name] for column_name in drawn]
            columns[name] = Column.concat(parts)
        return Relation(list(first.names), columns, None,
                        display_names=list(first.display_names))

    def _run_core(self, plan: CorePlan) -> Relation:
        frame = self._execute_from(plan)
        if plan.fused:
            self.stats.bump("fused_pipelines")
            relation = self._blocked_distinct(plan, frame)
            if relation is not None:
                return relation
        if isinstance(frame, _JoinChain):
            # Rebinding frees the chain and its row maps.
            frame = frame.materialise(plan.steps[-1])
        if plan.residual:
            frame = self._apply_filters(frame, plan.residual)
        if plan.is_aggregate:
            columns, env = self._aggregate(plan, frame)
        else:
            columns = frame.columns
            env = Environment(frame.env_columns(), frame.length,
                              self.registry)
        relation = self._project(plan, columns, env)
        if plan.core.distinct:
            relation = self._distinct(relation)
        return relation

    # -- plan execution: scans, joins, filters -----------------------------

    def _execute_from(self, plan: CorePlan) -> "Frame | _JoinChain":
        """Run a core's scans, their pushed-down filters and its joins:
        the scanned :class:`Frame`, or the :class:`_JoinChain` every join
        — inner, left outer or cartesian, one or many — streamed through,
        which the core materialises once, or a fused join→DISTINCT one
        block at a time (:meth:`_blocked_distinct`)."""
        if not plan.scans:
            # SELECT without FROM: one anonymous row.
            return Frame({}, {}, 1, frozenset())
        frames: dict[str, Frame] = {
            scan.binding: self._scan_frame(scan) for scan in plan.scans
        }
        for scan in plan.scans:
            if scan.filters:
                frames[scan.binding] = self._apply_filters(
                    frames[scan.binding], scan.filters
                )
        current = frames[plan.scans[0].binding]
        if not plan.steps:
            return current
        chain = _JoinChain(current)
        for step in plan.steps:
            self._join_step(chain, frames[step.binding], step)
        if chain.n_joins >= 2:
            # Telemetry: joins streamed without materialising any
            # intermediate output (outer joins riding inside count
            # separately).
            self.stats.bump("join_chain_fusions")
            if chain.n_outer:
                self.stats.bump("left_chain_fusions")
        return chain

    def _blocked_distinct(
        self, plan: CorePlan, chain: _JoinChain
    ) -> Optional[Relation]:
        """A fused join→DISTINCT as one loop over blocks of
        :data:`BLOCK_ROWS` chain rows (see the module docstring), when the
        columns the chain gathers its keys from pack
        (:func:`~repro.sqlengine.operators.packed_keys`); ``None``
        otherwise.  Each block's WHERE selects its rows as
        :func:`~repro.sqlengine.operators.kept_rows` says, and the motion
        charged is the kept rows' bytes."""
        sources = [chain.source(name) for name in plan.sources]
        keys = None if None in sources else packed_keys(sources)
        if keys is None:
            return None

        def selected(block: Frame) -> tuple[list[Column], Optional[np.ndarray]]:
            rows = kept_rows(self._where(block, plan.residual)) \
                if plan.residual else None
            return [block.columns[name] for name in plan.sources], rows

        # map() holds no block: one block's arrays live at a time.
        distinct, kept = packed_distinct(
            keys, chain.length,
            map(selected, chain.blocks(plan.steps[-1], BLOCK_ROWS)))
        self._charge_motion(_FIXED_WIDTH[INT64] * len(keys) * kept, kept,
                            plan.out_distribution is not None)
        return Relation(list(plan.out_names),
                        dict(zip(plan.out_names, distinct)),
                        plan.out_distribution,
                        display_names=list(plan.display_names))

    def _join_step(
        self, chain: _JoinChain, right: Frame, step: JoinStepPlan,
    ) -> None:
        """Run one join step — equi-join (``step.outer``: LEFT JOIN, whose
        unmatched probe rows surface as ``NO_MATCH`` right indices) or
        cartesian product — against the chain and fold its output index
        pair into the composed row maps."""
        if step.cartesian:
            total = chain.length * right.length
            if total > MAX_CARTESIAN_ROWS:
                raise PlanError(
                    f"refusing cartesian product of {chain.length} x "
                    f"{right.length} rows; add an equality join predicate"
                )
            self._charge_join_motion(chain, [])
            self._charge_join_motion(right, [])
            step.kernel = "cartesian"
            l_idx = np.repeat(np.arange(chain.length), right.length)
            r_idx = np.tile(np.arange(right.length), chain.length)
        else:
            left_keys = self._join_keys(chain, step.left_names)
            right_keys = self._join_keys(right, step.right_names)
            self._charge_join_motion(chain, step.left_names)
            self._charge_join_motion(right, step.right_names)
            note: list = []
            l_idx, r_idx = self._dispatch_join(step.outer, left_keys,
                                               right_keys, right,
                                               step.right_names, note)
            step.kernel = note[-1]
        chain.apply(l_idx, r_idx, right, step)

    def _scan_frame(self, scan: ScanPlan) -> Frame:
        binding = scan.binding
        if scan.subplan is None:
            table = self.catalog.get(scan.item.name)
            columns = {
                f"{binding}.{name}": table.column(name) for name in scan.columns
            }
            sources = {
                f"{binding}.{name}": (table, name) for name in scan.columns
            }
            return Frame(columns, {binding: list(scan.columns)}, table.n_rows,
                         scan.distribution, sources)
        relation = self.run_select(scan.item.select, scan.subplan)
        columns = {f"{binding}.{n}": relation.columns[n] for n in scan.columns}
        return Frame(columns, {binding: list(scan.columns)}, relation.n_rows,
                     scan.distribution)

    def _where(self, frame: Frame,
               predicates: list[Expression]) -> np.ndarray:
        """The mask of the rows every predicate holds on."""
        env = Environment(frame.env_columns(), frame.length, self.registry)
        # truth_values hands back a fresh array: the first one is the mask.
        keep = truth_values(evaluate(predicates[0], env))
        for predicate in predicates[1:]:
            keep &= truth_values(evaluate(predicate, env))
        return keep

    def _apply_filters(self, frame: Frame, predicates: list[Expression]) -> Frame:
        """The frame's rows every predicate holds on, gathered at their
        positions — compressing two columns by mask costs more below ~19
        in 20 rows kept (18.4 against 9.3 ms for 2M rows, 84% kept)."""
        keep = self._where(frame, predicates)
        return frame if keep.all() else frame.take(np.flatnonzero(keep))

    def _charge_motion(self, n_bytes: int, n_rows: int,
                       colocated: bool) -> None:
        """Account the data motion that co-locates one keyed operator's
        input (a join side, a grouping or DISTINCT input)."""
        plan = self.cluster.plan_motion(n_bytes, n_rows, colocated)
        if plan.kind == "redistribute":
            self.stats.record_redistribution(plan.moved_bytes)
        elif plan.kind == "broadcast":
            self.stats.record_broadcast(
                plan.moved_bytes // self.cluster.n_segments,
                self.cluster.n_segments,
            )

    def _charge_join_motion(self, frame: Frame, key_names: list[str]) -> None:
        """Account data motion for one join input."""
        self._charge_motion(frame.byte_size(), frame.length,
                            bool(frame.distribution & set(key_names)))

    # -- projection / aggregation / distinct -------------------------------

    def _project(self, plan: CorePlan, columns: dict[str, Column],
                 env: Environment) -> Relation:
        """The core's output relation, shaped as its plan says: each output
        reads its qualified source out of ``columns`` or evaluates its
        expression in ``env`` — the joined frame's, or above a GROUP BY
        the groups'."""
        out = {
            name: columns[source] if isinstance(source, str)
            else evaluate(source, env)
            for name, source in zip(plan.out_names, plan.sources)
        }
        return Relation(list(plan.out_names), out, plan.out_distribution,
                        display_names=list(plan.display_names))

    def _aggregate(
        self, plan: CorePlan, frame: Frame
    ) -> tuple[dict[str, Column], Environment]:
        """GROUP BY (or a global aggregate) over a frame: the one runner.
        The layout is read off the key columns (:meth:`_direct_groups`):
        a key that arrives sorted is reduced where it lies, a dense one by
        direct addressing, any other key through a sort — and every layout
        feeds the one reducer,
        :func:`~repro.sqlengine.operators._reduce_slice`.  Returns the group
        keys by qualified and bare name, and the environment the outputs
        are evaluated in: those keys and every aggregate's result."""
        env = Environment(frame.env_columns(), frame.length, self.registry)
        key_names = plan.group_keys
        key_columns = [frame.columns[name] for name in key_names]

        # ``order`` None: the rows already lie group by group.
        order = starts = direct = None
        if key_columns:
            layout = self._direct_groups(key_columns, plan.aggregates)
            if isinstance(layout, DirectGroups):
                direct = layout
                n_groups, counts = int(direct.present.shape[0]), direct.counts
            else:
                if layout is None:
                    order, starts = self._group_kernel(key_columns)
                else:
                    starts = layout
                    self.stats.bump("group_sorts_skipped")
                n_groups = int(starts.shape[0])
                counts = np.diff(np.append(starts, frame.length))
            # Motion: grouping needs rows co-located by the group key.
            self._charge_motion(frame.byte_size(), frame.length,
                                bool(frame.distribution & set(key_names)))
        else:
            starts = np.zeros(1, dtype=np.int64)
            n_groups = 1
            counts = np.array([frame.length])

        # Equal aggregate nodes are computed once, the first one's way.
        results: dict[Aggregate, Column] = {}
        for node in plan.aggregates:
            if node not in results:
                results[node] = self._compute_aggregate(
                    node, env, order, starts, counts, n_groups, direct)

        grouped: dict[str, Column] = {}
        for ref, qualified, column in zip(plan.core.group_by, key_names,
                                          key_columns):
            if direct is not None:
                # The occurring slots are the group keys, in the key
                # column's own form.
                keys = column.with_storage(direct.present + direct.low)
            else:
                keys = column.take(starts if order is None else order[starts])
            grouped[qualified] = keys
            grouped.setdefault(ref.name, keys)
        return grouped, Environment(grouped, n_groups, self.registry,
                                    aggregates=results)

    def _direct_groups(
        self,
        key_columns: list[Column],
        aggregates: list[Aggregate],
    ) -> Optional[DirectGroups | np.ndarray]:
        """The layout of a GROUP BY that needs no sort, else ``None``.  One
        key column that arrives sorted
        (:func:`~repro.sqlengine.operators.run_starts`) gives its group
        starts: its rows are reduced where they lie, whatever the
        aggregates.  Otherwise one dense key under counts, minima and
        maxima only, which a scatter reduction computes exactly, gives
        :func:`~repro.sqlengine.operators.direct_group_rows`' groups."""
        if len(key_columns) != 1:
            return None
        starts = run_starts(key_columns[0])
        if starts is not None:
            return starts
        if all(node.name in ("count", "min", "max") and not node.distinct
               for node in aggregates):
            return direct_group_rows(key_columns[0])
        return None

    def _compute_aggregate(
        self,
        node: Aggregate,
        env: Environment,
        order: Optional[np.ndarray],
        starts: np.ndarray,
        counts: np.ndarray,
        n_groups: int,
        direct: Optional[DirectGroups] = None,
    ) -> Column:
        if node.name == "count" and node.arg is None:
            return Column(counts.astype(np.int64), INT64)
        if node.arg is None:
            raise PlanError(f"{node.name}() requires an argument")
        argument = evaluate(node.arg, env)
        if node.distinct:
            return self._count_distinct(argument, order, counts, n_groups)
        if env.length == 0:
            # Global aggregate over an empty input: count is 0, the others
            # are NULL (SQL semantics); grouped aggregates have no groups.
            if n_groups == 0:
                return Column(np.empty(0, dtype=np.int64), INT64)
            if node.name == "count":
                return Column(np.zeros(n_groups, dtype=np.int64), INT64)
            return Column.nulls(n_groups, argument.sql_type)
        if node.name != "count" and argument.sql_type not in (
            INT64, FLOAT64, BOOL
        ):
            raise PlanError(f"{node.name}() on non-numeric column")
        return _reduce_slice(node.name, argument, order, starts, counts,
                             direct)

    def _count_distinct(
        self, argument: Column, order: Optional[np.ndarray],
        counts: np.ndarray, n_groups: int,
    ) -> Column:
        """count(distinct x) per group of the caller's grouping (one global
        group without GROUP BY; ``order`` None: the rows lie group by
        group): distinct (group position, x) pairs, counted per position.
        Groups are told apart by position, never by key value, so a group
        whose key is NULL counts like any other."""
        group_of_row = np.repeat(np.arange(n_groups), counts)
        if order is not None:
            grouped, group_of_row = group_of_row, np.empty_like(group_of_row)
            group_of_row[order] = grouped
        rows = np.flatnonzero(~argument.null_mask())
        groups, _ = distinct_rows([Column(group_of_row[rows], INT64),
                                   argument.take(rows)])
        return Column(
            np.bincount(groups.values, minlength=n_groups).astype(
                np.int64, copy=False), INT64)

    def _distinct(self, relation: Relation) -> Relation:
        """DISTINCT over ``relation``, charged the motion of its bytes."""
        names = relation.names
        columns = [relation.columns[n] for n in names]
        self._charge_motion(sum(col.byte_size() for col in columns),
                            relation.n_rows,
                            relation.distribution is not None)
        return Relation(list(names),
                        dict(zip(names, self._distinct_kernel(columns))),
                        relation.distribution, list(relation.display_names))

