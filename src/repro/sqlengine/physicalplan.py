"""Compiled physical plans: the per-template execution strategy cache.

The plan cache keeps one parsed AST per statement *template* (same SQL up
to table-name suffixes and integer constants).  The physical strategy of a
template — predicate classification, greedy join ordering, co-location
(motion) verdicts, projection wiring — does not change from round to round
either, so this module compiles it once per template into a
:class:`PhysicalPlan` that subsequent executions of the same template
re-run directly.

Each SELECT core's **shape** is compiled here and nowhere else
(:func:`_output_shape`): its output names, where each output comes from,
the column the result is distributed on, the GROUP BY keys' qualified
names and the aggregates.  Compiling it raises what running it would —
an unknown or ambiguous column, a GROUP BY key that is not a column,
``*`` beside GROUP BY, a column read outside the GROUP BY keys and the
aggregates — with the same messages, once per template.  The executor
reads the shape; it names, qualifies and checks nothing.  Expression
trees are walked by one iterator
(:func:`~repro.sqlengine.expressions.walk`).

A physical plan is compiled against the *patched* template AST and holds
references to its nodes.  The plan cache patches parameters into those same
nodes in place before every execution, so per-round values (table-name
suffixes, randomisation constants) are always current while everything
structural — join order, key columns, pushed-down filters, distribution
sets — is reused.  Validity is re-checked cheaply before each reuse:

* every FROM-item binding must still equal the binding the plan was
  compiled for (a parameterised alias that actually changes between
  executions invalidates the plan), and
* every referenced stored table must still exist with the same column list
  and distribution column (schema fingerprint).  Data changes — the
  per-round table churn — do *not* invalidate a plan: all data-dependent
  choices (index availability, kernel dispatch, motion byte counts) are
  resolved against live table state at execution time.

The compiler also wires in **pipeline fusion**:

* **column pruning** — each join step gathers only the columns consumed
  downstream (later join keys, residual predicates, projection,
  aggregation) instead of materialising every column of both inputs; and
* **join-chain fusion** — every join pipeline, of one join or many,
  streams through composed row-index maps: a join feeding another join's
  build side never materialises its output, and each downstream-consumed
  column is gathered exactly once across the whole chain (see
  ``_JoinChain`` in the executor, the only join runner).  A LEFT OUTER
  JOIN is a step like any other (:class:`JoinStepPlan` with ``outer``),
  placed after the greedy inner order — its null-extended rows travel as
  validity markers in the composed maps.  Its scan joins the core's
  bindings only after the WHERE is classified, so no WHERE conjunct is
  pushed below an outer join: one over its binding filters the joined
  rows.

Together they make a ``SELECT DISTINCT col, ...`` directly above a join —
outer or inner — a **fused join→DISTINCT** (``CorePlan.fused``): the
chain gathers exactly the projected and residual-filter columns, and
DISTINCT reads them with no projection pass in between.  When its keys
pack into one word the executor never materialises the chain: it
gathers those columns one block of chain rows at a time, evaluates the
residual predicates over the block and packs the kept rows' words, so
no filtered frame — no column of the chain's length — is built.  Any
other fused DISTINCT materialises, filters and de-duplicates its frame.
Every GROUP BY runs over the chain's materialised frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .ast_nodes import (
    Aggregate,
    BinaryOp,
    ColumnRef,
    Expression,
    FromItem,
    Select,
    SelectCore,
    Star,
    Statement,
    SubqueryRef,
    TableRef,
)
from .errors import PlanError
from .expressions import walk
from .table import Catalog


# ---------------------------------------------------------------------------
# predicate analysis helpers
# ---------------------------------------------------------------------------


def _conjuncts(expr: Optional[Expression]) -> list[Expression]:
    """Flatten a predicate into AND-connected conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, BinaryOp) and expr.op == "and":
        return _conjuncts(expr.left) + _conjuncts(expr.right)
    return [expr]


def _ref_binding(ref: ColumnRef, bindings: dict[str, list[str]]) -> Optional[str]:
    if ref.table is not None:
        return ref.table if ref.table in bindings else None
    owners = [b for b, cols in bindings.items() if ref.name in cols]
    if len(owners) == 1:
        return owners[0]
    return None


def _bindings_of(
    expr: Expression, binding_columns: dict[str, set[str]]
) -> set[str]:
    touched: set[str] = set()
    for ref in _column_refs(expr):
        if ref.table is not None:
            touched.add(ref.table)
        else:
            owners = [b for b, cols in binding_columns.items() if ref.name in cols]
            if len(owners) == 1:
                touched.add(owners[0])
            else:
                # Ambiguous or unknown: treat as touching everything so the
                # predicate is applied after all joins (and resolution errors
                # surface with a clear message there).
                touched.update(binding_columns.keys())
    return touched


def _as_join_edge(
    expr: Expression, binding_columns: dict[str, set[str]]
) -> Optional[tuple[str, str, ColumnRef, ColumnRef]]:
    """Return (binding_a, binding_b, ref_a, ref_b) for `a.x = b.y` predicates."""
    if not (isinstance(expr, BinaryOp) and expr.op == "="):
        return None
    left, right = expr.left, expr.right
    if not (isinstance(left, ColumnRef) and isinstance(right, ColumnRef)):
        return None
    bindings = {b: list(cols) for b, cols in binding_columns.items()}
    left_binding = _ref_binding(left, bindings)
    right_binding = _ref_binding(right, bindings)
    if left_binding is None or right_binding is None:
        return None
    if left_binding == right_binding:
        return None
    return left_binding, right_binding, left, right


def _edge_bindings(edge: tuple[str, str, ColumnRef, ColumnRef]) -> set[str]:
    return {edge[0], edge[1]}


def _column_refs(expr: Expression) -> list[ColumnRef]:
    """Every column reference of an expression tree, in source order."""
    return [node for node in walk(expr) if isinstance(node, ColumnRef)]


def _qualify(ref: ColumnRef, bindings: dict[str, list[str]]) -> str:
    """Resolve a column reference to its ``binding.column`` key, or raise
    the error evaluating it would: an unknown or an ambiguous column."""
    if ref.table is not None:
        if ref.table not in bindings or ref.name not in bindings[ref.table]:
            raise PlanError(f"unknown column {ref.display()!r}")
        return f"{ref.table}.{ref.name}"
    candidates = [
        f"{binding}.{ref.name}"
        for binding, cols in bindings.items()
        if ref.name in cols
    ]
    if not candidates:
        raise PlanError(f"unknown column {ref.name!r}")
    if len(candidates) > 1:
        raise PlanError(f"ambiguous column {ref.name!r}")
    return candidates[0]


# ---------------------------------------------------------------------------
# plan structures
# ---------------------------------------------------------------------------


@dataclass
class ScanPlan:
    """One FROM item: a stored-table scan or a planned subquery."""

    item: FromItem  # AST node; the plan cache patches its name in place
    binding: str
    columns: tuple[str, ...]
    distribution: frozenset[str]
    filters: list[Expression] = field(default_factory=list)
    subplan: Optional["SelectPlan"] = None


@dataclass
class JoinStepPlan:
    """One step of the join pipeline: an inner equi-join or cartesian
    step of the greedy order, or (``outer``) a LEFT OUTER JOIN, which
    always has an equality edge and follows every inner step."""

    binding: str  # the right-side binding this step joins in
    cartesian: bool
    left_names: list[str]  # qualified key names on the accumulated left side
    right_names: list[str]
    left_gather: list[str]  # columns materialised from the left frame
    right_gather: list[str]  # columns materialised from the right frame
    out_bindings: dict[str, list[str]]
    out_distribution: frozenset[str]
    kernel: str = ""  # last kernel strategy the dispatch picked (telemetry)
    outer: bool = False


@dataclass
class CorePlan:
    """The compiled pipeline of one SELECT core, and the shape of its
    output.

    The executor streams the joins (``steps``: the greedy inner order,
    then the LEFT JOINs in query order) through composed row-index maps:
    a join feeding another join's build side never materialises the
    intermediate, and every downstream-consumed column is gathered
    exactly once, across the whole chain.  Above the joins it reads the
    output's names, sources and distribution, the GROUP BY keys and the
    aggregates off this plan; it decides none of them.
    """

    core: SelectCore
    #: Every FROM item, the left-joined ones last.
    scans: list[ScanPlan]
    #: The joins in execution order; the last one's output is the frame
    #: the chain materialises.
    steps: list[JoinStepPlan]
    residual: list[Expression]
    is_aggregate: bool
    #: Unique storage keys, one per output (a repeated name ``n`` at
    #: output ``i`` is stored as ``n__{i + 1}``) ...
    out_names: list[str]
    #: ... the names a user sees, which may repeat ...
    display_names: list[str]
    #: ... and where each output comes from: the qualified frame column a
    #: ``*`` expansion or a column item reads, else the item's expression.
    sources: list
    #: The output the result is hash-distributed on, if any.
    out_distribution: Optional[str]
    #: The GROUP BY keys' qualified names.
    group_keys: list[str]
    #: Every aggregate node of the select items, in walk order (equal
    #: nodes repeat: patching may make them differ).
    aggregates: list[Aggregate]
    #: A SELECT DISTINCT of plain columns directly above a join: the chain
    #: gathers only what it projects and filters on, one block of rows at
    #: a time when the keys pack (telemetry: ``fused_pipelines``).
    fused: bool = False


@dataclass
class SelectPlan:
    """A planned SELECT statement (one CorePlan per UNION ALL arm)."""

    select: Select
    cores: list[CorePlan]


@dataclass
class PhysicalPlan:
    """A compiled statement: the select pipeline plus its validity checks."""

    statement: Statement
    select_plan: SelectPlan
    #: (TableRef node, expected column tuple, expected distribution column)
    table_checks: list[tuple]
    #: (FromItem node, binding the plan was compiled for)
    binding_checks: list[tuple]
    #: (ColumnRef node, table, name) — every reference whose resolved
    #: qualified name may be baked into the plan (join keys, gather
    #: lists).  Digit suffixes of column names are template
    #: parameters like everything else, so a later statement can patch a
    #: *different* column into the same node; the plan must notice.
    ref_checks: list[tuple]
    #: (SelectItem node, alias) — output aliases baked into compiled names.
    alias_checks: list[tuple]


def compile_statement(
    statement: Statement, catalog: Catalog
) -> Optional[PhysicalPlan]:
    """Compile the physical plan of a statement containing a SELECT.

    Returns ``None`` for statements without one (pure DDL/DML), which need
    no physical planning.
    """
    if isinstance(statement, Select):
        select = statement
    else:
        select = getattr(statement, "select", None)
    if not isinstance(select, Select):
        return None
    compiler = _Compiler(catalog)
    select_plan = compiler.compile_select(select)
    return PhysicalPlan(
        statement, select_plan, compiler.table_checks,
        compiler.binding_checks, compiler.ref_checks, compiler.alias_checks,
    )


def plan_is_valid(plan: PhysicalPlan, catalog: Catalog) -> bool:
    """Cheap pre-execution validity check for a cached physical plan.

    Confirms the patched AST still names the bindings the plan was compiled
    for and that every referenced stored table exists with an unchanged
    schema fingerprint.  Data content is deliberately not part of the
    check: kernel dispatch and motion byte counts read live table state.
    """
    for node, binding in plan.binding_checks:
        if node.binding != binding:
            return False
    for node, table, name in plan.ref_checks:
        if node.table != table or node.name != name:
            return False
    for node, alias in plan.alias_checks:
        if node.alias != alias:
            return False
    for node, columns, distribution_column in plan.table_checks:
        if node.name not in catalog:
            return False
        table = catalog.get(node.name)
        if tuple(table.column_names) != columns:
            return False
        if table.distribution_column != distribution_column:
            return False
    return True


# ---------------------------------------------------------------------------
# the compiler
# ---------------------------------------------------------------------------


class _Compiler:
    def __init__(self, catalog: Catalog):
        self.catalog = catalog
        self.table_checks: list[tuple] = []
        self.binding_checks: list[tuple] = []
        self.ref_checks: list[tuple] = []
        self.alias_checks: list[tuple] = []

    def _record_core_checks(self, core: SelectCore) -> None:
        """Snapshot every column ref and output alias of a core.

        The plan compiles their *current* values into name strings; the
        validity check compares these snapshots against the re-patched AST
        so a template whose parameters reach into identifier names can
        never execute a stale plan.
        """
        exprs = [item.expr for item in core.items]
        self.alias_checks.extend((item, item.alias) for item in core.items)
        if core.where is not None:
            exprs.append(core.where)
        exprs.extend(join.condition for join in core.joins)
        exprs.extend(core.group_by)
        for expr in exprs:
            self.ref_checks.extend((ref, ref.table, ref.name)
                                   for ref in _column_refs(expr))

    # -- selects ---------------------------------------------------------

    def compile_select(self, select: Select) -> SelectPlan:
        cores = [self.compile_core(c) for c in select.cores]
        if len(cores) > 1:
            # UNION ALL arity is a static property of the compiled arms;
            # checking it here means a malformed statement fails before any
            # arm executes.
            width = len(cores[0].out_names)
            for other in cores[1:]:
                if len(other.out_names) != width:
                    raise PlanError(
                        "UNION ALL arms have different column counts"
                    )
        return SelectPlan(select, cores)

    def compile_scan(self, item: FromItem) -> ScanPlan:
        if isinstance(item, TableRef):
            table = self.catalog.get(item.name)
            binding = item.binding
            columns = tuple(table.column_names)
            distribution = frozenset(
                {f"{binding}.{table.distribution_column}"}
                if table.distribution_column
                else set()
            )
            self.table_checks.append(
                (item, columns, table.distribution_column)
            )
            self.binding_checks.append((item, binding))
            return ScanPlan(item, binding, columns, distribution)
        if isinstance(item, SubqueryRef):
            subplan = self.compile_select(item.select)
            binding = item.alias
            # A UNION ALL subquery exposes the first arm's storage names and
            # no distribution: its arms' rows interleave.
            first = subplan.cores[0]
            columns = tuple(first.out_names)
            inner_distribution = (
                first.out_distribution if len(subplan.cores) == 1 else None
            )
            distribution = frozenset(
                {f"{binding}.{inner_distribution}"} if inner_distribution else set()
            )
            self.binding_checks.append((item, binding))
            return ScanPlan(item, binding, columns, distribution,
                            subplan=subplan)
        raise PlanError(f"unsupported FROM item {type(item).__name__}")

    # -- one core --------------------------------------------------------

    def compile_core(self, core: SelectCore) -> CorePlan:
        self._record_core_checks(core)
        is_aggregate = bool(core.group_by) or any(
            isinstance(node, Aggregate)
            for item in core.items for node in walk(item.expr)
        )
        if not core.from_items:
            # SELECT without FROM: one anonymous row, nothing to plan.
            return CorePlan(core, [], [], [], is_aggregate,
                            **_output_shape(core, {}, is_aggregate,
                                            frozenset()))

        scans: list[ScanPlan] = []
        by_binding: dict[str, ScanPlan] = {}
        order: list[str] = []

        def add_scan(item: FromItem) -> ScanPlan:
            scan = self.compile_scan(item)
            if scan.binding in by_binding:
                raise PlanError(f"duplicate table binding {scan.binding!r}")
            scans.append(scan)
            by_binding[scan.binding] = scan
            order.append(scan.binding)
            return scan

        for item in core.from_items:
            add_scan(item)
        inner_joins = [j for j in core.joins if j.kind == "inner"]
        left_join_items = [j for j in core.joins if j.kind == "left"]
        for join in inner_joins:
            add_scan(join.table)

        predicates = _conjuncts(core.where)
        for join in inner_joins:
            predicates.extend(_conjuncts(join.condition))

        # Classify predicates: pushed filters, equi-join edges, residual.
        binding_columns = {b: set(s.columns) for b, s in by_binding.items()}
        join_edges: list[tuple[str, str, ColumnRef, ColumnRef]] = []
        residual: list[Expression] = []
        for predicate in predicates:
            touched = _bindings_of(predicate, binding_columns)
            if len(touched) == 1 and next(iter(touched)) in by_binding:
                by_binding[next(iter(touched))].filters.append(predicate)
            elif _as_join_edge(predicate, binding_columns) is not None:
                join_edges.append(_as_join_edge(predicate, binding_columns))
            else:
                residual.append(predicate)

        # Greedy join ordering along usable equi-join edges (the same walk
        # the executor used to run per execution).
        acc_bindings: dict[str, list[str]] = {
            order[0]: list(by_binding[order[0]].columns)
        }
        steps: list[JoinStepPlan] = []
        joined = {order[0]}
        pending = [b for b in order[1:]]
        unused_edges = list(join_edges)
        while pending:
            progressed = False
            for binding in list(pending):
                edges = [
                    e for e in unused_edges
                    if (_edge_bindings(e) == {binding} | (_edge_bindings(e) & joined))
                    and binding in _edge_bindings(e)
                    and len(_edge_bindings(e) & joined) == 1
                ]
                if not edges:
                    continue
                steps.append(self._compile_step(
                    acc_bindings, by_binding[binding], edges))
                acc_bindings[binding] = list(by_binding[binding].columns)
                joined.add(binding)
                pending.remove(binding)
                for e in edges:
                    unused_edges.remove(e)
                progressed = True
                break
            if not progressed:
                binding = pending.pop(0)
                steps.append(JoinStepPlan(binding, True, [], [], [], [], {},
                                          frozenset()))
                acc_bindings[binding] = list(by_binding[binding].columns)
                joined.add(binding)
        # Edges between already-joined bindings become residual filters.
        for _, _, ref_a, ref_b in unused_edges:
            residual.append(BinaryOp("=", ref_a, ref_b))

        # LEFT JOINs follow, in query order.  Their scans enter
        # ``by_binding`` only now, after the WHERE was classified, so no
        # conjunct is pushed below an outer join.
        for join in left_join_items:
            scan = add_scan(join.table)
            binding_columns[scan.binding] = set(scan.columns)
            edges = [_as_join_edge(p, binding_columns)
                     for p in _conjuncts(join.condition)]
            usable = [e for e in edges if e is not None
                      and scan.binding in _edge_bindings(e)]
            if not usable:
                raise PlanError(
                    "LEFT JOIN requires at least one equality condition")
            if len(usable) < len(edges):
                raise PlanError(
                    f"each LEFT JOIN condition must equate a column of "
                    f"{scan.binding!r} with a column of an earlier table")
            steps.append(self._compile_step(acc_bindings, scan, usable,
                                            outer=True))
            acc_bindings[scan.binding] = list(scan.columns)

        needed = self._collect_needed(core, residual, acc_bindings)
        self._wire_gathers(by_binding, order[0], steps, needed)

        final = steps[-1] if steps else None
        shape = _output_shape(
            core, acc_bindings, is_aggregate,
            by_binding[order[0]].distribution if final is None
            else final.out_distribution,
        )
        fused = (
            core.distinct
            and not is_aggregate
            and final is not None
            and not final.cartesian
            and bool(core.items)
            and all(isinstance(item.expr, ColumnRef) for item in core.items)
            and needed is not None
        )
        return CorePlan(core, scans, steps, residual, is_aggregate, **shape,
                        fused=fused)

    # -- join steps ------------------------------------------------------

    def _compile_step(
        self,
        acc_bindings: dict[str, list[str]],
        right: ScanPlan,
        edges: list[tuple[str, str, ColumnRef, ColumnRef]],
        outer: bool = False,
    ) -> JoinStepPlan:
        right_bindings = {right.binding: list(right.columns)}
        left_names: list[str] = []
        right_names: list[str] = []
        for _, _, ref_a, ref_b in edges:
            # Orient each edge: one side references the right binding.
            if _ref_binding(ref_b, right_bindings) == right.binding:
                left_ref, right_ref = ref_a, ref_b
            else:
                left_ref, right_ref = ref_b, ref_a
            left_names.append(_qualify(left_ref, acc_bindings))
            right_names.append(_qualify(right_ref, right_bindings))
        # A LEFT JOIN's null-extended rows are not distributed on its
        # right keys.
        distribution = frozenset(left_names) if outer \
            else frozenset(left_names) | frozenset(right_names)
        return JoinStepPlan(right.binding, False, left_names, right_names,
                            [], [], {}, distribution, outer=outer)

    # -- column pruning ---------------------------------------------------

    def _collect_needed(
        self,
        core: SelectCore,
        residual: list[Expression],
        all_bindings: dict[str, list[str]],
    ) -> Optional[set[str]]:
        """Qualified columns the pipeline consumes above the joins, or
        ``None`` when pruning must stay off (``*``, unresolvable refs)."""
        exprs = [item.expr for item in core.items]
        if any(isinstance(expr, Star) for expr in exprs):
            return None
        needed: set[str] = set()
        for expr in exprs + list(core.group_by) + residual:
            for ref in _column_refs(expr):
                try:
                    needed.add(_qualify(ref, all_bindings))
                except PlanError:
                    return None
        return needed

    def _wire_gathers(
        self,
        by_binding: dict[str, ScanPlan],
        first: str,
        steps: list[JoinStepPlan],
        needed: Optional[set[str]],
    ) -> None:
        """Fill each step's gather lists and output bindings.

        With ``needed`` known, every step materialises only the columns
        consumed downstream of it (later join keys, residual predicates,
        projection/aggregation inputs); otherwise (a ``*`` projection, an
        unresolvable reference) every column flows through.
        """
        def quals(binding: str) -> list[str]:
            return [f"{binding}.{c}" for c in by_binding[binding].columns]

        # Forward pass: the left-side column list in front of each step.
        sequence = [first] + [step.binding for step in steps]
        prefix = quals(first)
        step_left_cols: list[list[str]] = []
        for step in steps:
            step_left_cols.append(list(prefix))
            prefix = prefix + quals(step.binding)

        # Backward pass: what each operator's output must contain.
        downstream = None if needed is None else set(needed)
        for i in reversed(range(len(steps))):
            step, left_cols = steps[i], step_left_cols[i]
            right_cols = quals(step.binding)
            if downstream is None:
                step.left_gather = list(left_cols)
                step.right_gather = list(right_cols)
            else:
                step.left_gather = [c for c in left_cols if c in downstream]
                step.right_gather = [c for c in right_cols if c in downstream]
                downstream = (
                    (downstream - set(right_cols)) | set(step.left_names)
                )
            step.out_bindings = _bindings_from(
                step.left_gather + step.right_gather, sequence[:i + 2])


def _output_shape(
    core: SelectCore, bindings: dict[str, list[str]], is_aggregate: bool,
    distribution: frozenset,
) -> dict:
    """A core's output shape, as :class:`CorePlan` fields: names, sources
    and distribution, the GROUP BY keys and the aggregates.  ``bindings``
    are the columns every FROM item and join contributes, in join order,
    and ``distribution`` the qualified columns the final frame is
    hash-distributed on.

    Raises what executing the core would: a GROUP BY key that is not a
    column, ``*`` under GROUP BY, an unknown or ambiguous column item or
    key, and a column a GROUP BY output reads outside its aggregates and
    keys."""
    if is_aggregate and any(isinstance(item.expr, Star) for item in core.items):
        raise PlanError("'*' cannot be combined with GROUP BY")
    group_keys = []
    for ref in core.group_by:
        if not isinstance(ref, ColumnRef):
            raise PlanError("GROUP BY supports plain column references only")
        group_keys.append(_qualify(ref, bindings))
    names: list[str] = []
    display: list[str] = []
    sources: list = []

    def add(name: str, source) -> None:
        names.append(name if name not in names
                     else f"{name}__{len(names) + 1}")
        display.append(name)
        sources.append(source)

    for item in core.items:
        expr = item.expr
        if isinstance(expr, Star):
            for binding, cols in bindings.items():
                for col in cols:
                    add(col, f"{binding}.{col}")
            continue
        if is_aggregate:
            _check_grouped(expr, bindings, group_keys)
        if isinstance(expr, ColumnRef):
            add(item.alias or expr.name, _qualify(expr, bindings))
        else:
            add(item.alias or f"column{len(names) + 1}", expr)
    if is_aggregate:
        distribution = frozenset(group_keys[:1])
    out_distribution = next(
        (name for name, source in zip(names, sources)
         if isinstance(source, str) and source in distribution), None)
    aggregates = [
        node for item in core.items
        for node in walk(item.expr, into_aggregates=False)
        if isinstance(node, Aggregate)
    ] if is_aggregate else []
    return dict(out_names=names, display_names=display, sources=sources,
                out_distribution=out_distribution, group_keys=group_keys,
                aggregates=aggregates)


def _check_grouped(expr: Expression, bindings: dict[str, list[str]],
                   group_keys: list[str]) -> None:
    """Reject a column a GROUP BY output reads outside its aggregates that
    no GROUP BY key names, once both are resolved against the core's
    bindings: a bare name two bindings share is ambiguous, whatever the
    keys."""
    for ref in walk(expr, into_aggregates=False):
        if isinstance(ref, ColumnRef) \
                and _qualify(ref, bindings) not in group_keys:
            raise PlanError(f"column {ref.display()!r} must appear in "
                            "GROUP BY or an aggregate")


def _bindings_from(
    quals: list[str], binding_order: list[str]
) -> dict[str, list[str]]:
    """Group qualified column names into an ordered binding -> columns map."""
    out: dict[str, list[str]] = {b: [] for b in binding_order}
    for qualified in quals:
        binding, column = qualified.split(".", 1)
        out[binding].append(column)
    return out
