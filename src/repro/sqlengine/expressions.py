"""Vectorised expression evaluation.

Expressions are evaluated bottom-up against an :class:`Environment` that
maps column names (qualified ``alias.col`` and, where unambiguous, bare
``col``) to whole :class:`~repro.sqlengine.types.Column` arrays.  The result
of every evaluation is again a Column, so a WHERE clause, a join condition
or a select item are all just expression evaluations.

NULL semantics are the pragmatic subset the paper's queries need:

* arithmetic and function calls are strict (NULL in, NULL out);
* comparisons involving NULL evaluate to FALSE (not UNKNOWN) — sufficient
  because the reproduced queries only compare non-nullable key columns, and
  explicit NULL tests go through ``IS [NOT] NULL``;
* ``least`` follows PostgreSQL semantics (see functions.py), and so does
  ``coalesce``, a special form here like CASE: argument k + 1 is
  evaluated only over the rows arguments 1..k left NULL, in an
  environment restricted to those rows (:meth:`Environment.restricted`),
  and scattered back.  A fallback no row needs is evaluated over zero
  rows — still typed, so the result type is promoted over every
  argument — and a UDF in it never sees a row whose first argument was
  set: the composition's ``coalesce(r2.rep, axplusb(...))`` applies ``h``
  to the null-extended rows alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Optional, Sequence

import numpy as np

from .ast_nodes import (
    Aggregate,
    BinaryOp,
    CaseWhen,
    ColumnRef,
    Expression,
    FuncCall,
    InList,
    IsNull,
    Literal,
    Star,
    UnaryOp,
)
from .errors import ExecutionError, PlanError
from .functions import FunctionRegistry, ScalarArg, common_type
from .types import BOOL, FLOAT64, INT64, TEXT, Column, dtype_for


class AmbiguousColumn:
    """Marker bound to a bare column name claimed by several tables."""


#: Shared singleton marker.
AMBIGUOUS = AmbiguousColumn()


@dataclass
class Environment:
    """Name bindings and context for one expression evaluation."""

    columns: Mapping[str, Column]
    length: int
    registry: FunctionRegistry
    #: Pre-computed aggregate results, keyed by AST node; only present when
    #: evaluating select items above a GROUP BY.
    aggregates: Optional[Mapping[Aggregate, Column]] = None

    def lookup(self, ref: ColumnRef) -> Column:
        key = f"{ref.table}.{ref.name}" if ref.table else ref.name
        try:
            found = self.columns[key]
        except KeyError:
            raise PlanError(f"unknown column {ref.display()!r}")
        if isinstance(found, AmbiguousColumn):
            raise PlanError(f"ambiguous column {ref.display()!r}")
        return found

    def restricted(self, rows: np.ndarray) -> "Environment":
        """This environment over ``rows`` only: each column and aggregate
        is gathered on its first lookup."""
        aggregates = self.aggregates
        return Environment(
            _GatheredOnLookup(self.columns, rows), int(rows.shape[0]),
            self.registry,
            None if aggregates is None else _GatheredOnLookup(aggregates, rows),
        )


class _GatheredOnLookup(Mapping):
    """``columns`` restricted to ``rows``: a column is gathered the first
    time it is looked up, and only then."""

    def __init__(self, columns: Mapping, rows: np.ndarray):
        self._columns = columns
        self._rows = rows
        self._gathered: dict = {}

    def __getitem__(self, key) -> Column:
        found = self._gathered.get(key)
        if found is None:
            found = self._columns[key]
            if not isinstance(found, AmbiguousColumn):
                found = found.take(self._rows)
            self._gathered[key] = found
        return found

    def __contains__(self, key) -> bool:
        return key in self._columns

    def __iter__(self) -> Iterator:
        return iter(self._columns)

    def __len__(self) -> int:
        return len(self._columns)


def children(expr: Expression) -> tuple:
    """The direct sub-expressions of an expression node, in source order:
    the one place outside :func:`evaluate` that knows each node kind's
    shape."""
    if isinstance(expr, BinaryOp):
        return expr.left, expr.right
    if isinstance(expr, (UnaryOp, IsNull)):
        return (expr.operand,)
    if isinstance(expr, InList):
        return (expr.operand, *expr.items)
    if isinstance(expr, FuncCall):
        return expr.args
    if isinstance(expr, Aggregate):
        return () if expr.arg is None else (expr.arg,)
    if isinstance(expr, CaseWhen):
        nodes = tuple(node for branch in expr.branches for node in branch)
        return nodes if expr.default is None else nodes + (expr.default,)
    return ()  # a column, a literal, a star


def walk(expr: Expression, into_aggregates: bool = True) -> Iterator:
    """Every node of an expression tree, pre-order.  With
    ``into_aggregates`` False an aggregate's argument is not entered: what
    a GROUP BY's output evaluates outside its aggregates."""
    yield expr
    if into_aggregates or not isinstance(expr, Aggregate):
        for child in children(expr):
            yield from walk(child, into_aggregates)


def evaluate(expr: Expression, env: Environment) -> Column:
    """Evaluate an expression to a Column of ``env.length`` rows."""
    if isinstance(expr, Literal):
        return Column.constant(expr.value, env.length)
    if isinstance(expr, ColumnRef):
        return env.lookup(expr)
    if isinstance(expr, Aggregate):
        if env.aggregates is None or expr not in env.aggregates:
            raise PlanError("aggregate used outside of an aggregation context")
        return env.aggregates[expr]
    if isinstance(expr, FuncCall):
        if expr.name == "coalesce":
            return _coalesce(expr.args, env)
        fn = env.registry.lookup(expr.name)
        args = []
        for arg in expr.args:
            if isinstance(arg, Literal):
                args.append(ScalarArg(arg.value))
            else:
                args.append(evaluate(arg, env))
        return fn(args, env.length)
    if isinstance(expr, BinaryOp):
        return _binary(expr, env)
    if isinstance(expr, UnaryOp):
        return _unary(expr, env)
    if isinstance(expr, IsNull):
        operand = evaluate(expr.operand, env)
        mask = operand.null_mask()
        values = ~mask if expr.negated else mask.copy()
        return Column(values, BOOL)
    if isinstance(expr, CaseWhen):
        return _case(expr, env)
    if isinstance(expr, InList):
        return _in_list(expr, env)
    if isinstance(expr, Star):
        raise PlanError("'*' is only valid as a top-level select item or in count(*)")
    raise ExecutionError(f"cannot evaluate expression node {type(expr).__name__}")


def truth_values(column: Column) -> np.ndarray:
    """Boolean array for filtering: NULL counts as FALSE."""
    if column.sql_type != BOOL:
        raise PlanError("expected a boolean expression")
    values = column.values.astype(bool, copy=True)
    if column.mask is not None:
        values[column.mask] = False
    return values


_ARITH_OPS = {"+", "-", "*", "/", "%", "||"}
_COMPARE_OPS = {"=", "!=", "<", "<=", ">", ">="}


def _binary(expr: BinaryOp, env: Environment) -> Column:
    op = expr.op
    if op in ("and", "or"):
        left = truth_values(evaluate(expr.left, env))
        right = truth_values(evaluate(expr.right, env))
        values = (left & right) if op == "and" else (left | right)
        return Column(values, BOOL)
    left = evaluate(expr.left, env)
    right = evaluate(expr.right, env)
    if op in _COMPARE_OPS:
        return _compare(op, left, right)
    if op in _ARITH_OPS:
        return _arithmetic(op, left, right, env.length)
    raise ExecutionError(f"unknown binary operator {op!r}")


def _compare(op: str, left: Column, right: Column) -> Column:
    if left.dictionary is not None and left.dictionary is right.dictionary:
        # One sorted dictionary: the codes compare as their values do.
        lv, rv = left.codes, right.codes
    else:
        lv, rv = left.values, right.values
    if left.sql_type == TEXT or right.sql_type == TEXT:
        if left.sql_type != right.sql_type:
            raise ExecutionError("cannot compare text with non-text")
    ops = {
        "=": lambda a, b: a == b,
        "!=": lambda a, b: a != b,
        "<": lambda a, b: a < b,
        "<=": lambda a, b: a <= b,
        ">": lambda a, b: a > b,
        ">=": lambda a, b: a >= b,
    }
    values = np.asarray(ops[op](lv, rv), dtype=bool)
    # NULL comparisons are FALSE (see module docstring).
    for col in (left, right):
        if col.mask is not None:
            values = values & ~col.mask
    return Column(values, BOOL)


def _arithmetic(op: str, left: Column, right: Column, length: int) -> Column:
    if op == "||":
        values = np.array(
            [f"{a}{b}" for a, b in zip(left.to_list(), right.to_list())], dtype=object
        )
        mask = _mask_or(left, right)
        return Column(values, TEXT, mask)
    if left.sql_type == TEXT or right.sql_type == TEXT:
        raise ExecutionError(f"operator {op!r} is not defined on text")
    mask = _mask_or(left, right)
    if op == "/":
        lv = left.values.astype(np.float64)
        rv = right.values.astype(np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            values = lv / rv
        zero = rv == 0
        if zero.any():
            mask = zero if mask is None else (mask | zero)
        return Column(values, FLOAT64, mask)
    result_type = FLOAT64 if FLOAT64 in (left.sql_type, right.sql_type) else INT64
    lv = left.values
    rv = right.values
    if result_type == FLOAT64:
        lv = lv.astype(np.float64, copy=False)
        rv = rv.astype(np.float64, copy=False)
    if op == "+":
        values = lv + rv
    elif op == "-":
        values = lv - rv
    elif op == "*":
        values = lv * rv
    elif op == "%":
        if (rv == 0).any():
            raise ExecutionError("division by zero in %")
        values = np.fmod(lv, rv)
    else:  # pragma: no cover - guarded by caller
        raise ExecutionError(f"unknown arithmetic operator {op!r}")
    return Column(values, result_type, mask)


def _mask_or(left: Column, right: Column) -> np.ndarray | None:
    if left.mask is None and right.mask is None:
        return None
    return left.null_mask() | right.null_mask()


def _unary(expr: UnaryOp, env: Environment) -> Column:
    operand = evaluate(expr.operand, env)
    if expr.op == "-":
        if operand.sql_type not in (INT64, FLOAT64):
            raise ExecutionError("unary minus on non-numeric value")
        return Column(-operand.values, operand.sql_type, operand.mask)
    if expr.op == "not":
        values = ~truth_values(operand)
        return Column(values, BOOL)
    raise ExecutionError(f"unknown unary operator {expr.op!r}")


def _case(expr: CaseWhen, env: Environment) -> Column:
    conditions = [truth_values(evaluate(c, env)) for c, _ in expr.branches]
    results = [evaluate(v, env) for _, v in expr.branches]
    if expr.default is not None:
        default = evaluate(expr.default, env)
    else:
        default = Column.nulls(env.length, results[0].sql_type)
    sql_type = results[0].sql_type
    for col in results + [default]:
        if col.sql_type == FLOAT64:
            sql_type = FLOAT64
    out_values = default.values.astype(dtype_for(sql_type), copy=True)
    out_mask = default.null_mask().copy()
    decided = np.zeros(env.length, dtype=bool)
    for condition, result in zip(conditions, results):
        take = condition & ~decided
        out_values[take] = result.values[take]
        out_mask[take] = result.null_mask()[take]
        decided |= condition
    return Column(out_values, sql_type, out_mask if out_mask.any() else None)


def _coalesce(args: Sequence[Expression], env: Environment) -> Column:
    """``coalesce(a1, ..., an)``, short-circuiting as PostgreSQL's does:
    each argument after the first is evaluated over the rows the ones
    before it left NULL, and its rows are scattered into the result.  The
    first argument comes back as it is — encoded or not — when it has no
    NULL and the promoted type is its own."""
    if not args:
        raise ExecutionError("coalesce needs at least one argument")
    first = evaluate(args[0], env)
    pending = np.flatnonzero(first.mask) if first.mask is not None \
        else np.empty(0, dtype=np.int64)
    filled: list[tuple[np.ndarray, Column]] = []
    for arg in args[1:]:
        part = evaluate(arg, env.restricted(pending))
        filled.append((pending, part))
        pending = pending[part.mask] if part.mask is not None else pending[:0]
    sql_type = common_type([first] + [part for _, part in filled])
    if sql_type == first.sql_type and first.mask is None:
        return first
    values = first.values.astype(dtype_for(sql_type), copy=True)
    for rows, part in filled:
        values[rows] = part.values
    mask = None
    if pending.shape[0]:
        mask = np.zeros(env.length, dtype=bool)
        mask[pending] = True
    return Column(values, sql_type, mask)


def _in_list(expr: InList, env: Environment) -> Column:
    operand = evaluate(expr.operand, env)
    hits = np.zeros(env.length, dtype=bool)
    for item in expr.items:
        candidate = evaluate(item, env)
        hits |= truth_values(_compare("=", operand, candidate))
    if expr.negated:
        hits = ~hits
        if operand.mask is not None:
            hits[operand.mask] = False
    return Column(hits, BOOL)
