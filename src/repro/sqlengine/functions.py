"""Scalar function registry: built-ins and user-defined functions.

The paper's algorithm needs ``least`` and ``coalesce`` (Figure 3/4) plus a
user-defined function ``axplusb`` implementing GF(2^64) arithmetic — the C
function of Appendix A.  The engine exposes the same extension point:
:meth:`FunctionRegistry.register_udf` accepts a vectorised Python callable
and makes it callable from SQL, which is how :mod:`repro.core` installs
``axplusb``, ``axbmodp`` and ``blowfish``.

Every function here is called with each argument evaluated over every
row.  ``coalesce`` cannot be: it evaluates a fallback only over the rows
still NULL, so it is a special form of
:func:`repro.sqlengine.expressions.evaluate`, like CASE, and its name is
reserved (:data:`SPECIAL_FORMS`) — the composition's
``coalesce(r2.rep, axplusb(...))`` applies the UDF to the null-extended
rows alone.

Calling convention for UDFs: argument expressions that are SQL literals are
passed as plain Python scalars, column-valued arguments as numpy arrays.
This mirrors how a database hands constant arguments to a C UDF once per
query rather than once per row, and it is what lets ``axplusb`` build its
lookup tables for a round's constant ``(A, B)`` only once.

Volatility: ``register_udf(..., immutable=False)`` (and
``Database.create_function``) is the default — the function is called with
every row of its column arguments, every time.  Declaring
``immutable=True`` says what PostgreSQL's ``IMMUTABLE`` says: a row's
result depends on that row's arguments alone.  The engine then calls
the function once per *distinct* value of a lone encoded column argument
(see :mod:`repro.sqlengine.types`) and gathers the results back through
the codes:

* a column at least as long as its dictionary is evaluated over the whole
  dictionary, values of the stored columns it encodes;
* a shorter one over the entries that *occur* (a presence mask over the
  codes), when :func:`~repro.sqlengine.operators._dense_span_limit`
  admits its dictionary's size.  A value no row holds is never passed: a
  partial function such as ``axbmodp`` sees only what the query supplied.

Any other call passes every row, so it never sees such a value either,
and a call over zero rows returns an empty column of the declared type
without calling the function.

That is |V| field multiplications instead of 2|E| in a contraction
round.  Each such function also keeps its last evaluation, keyed by its
literal arguments and the dictionary object (read-only, and held, so its
identity stands for its content), with the evaluated-presence mask, and a
later call whose codes all lie in that evaluation is a gather with no
call at all.  So ``least(h(v1),
min(h(v2)))`` evaluates ``h`` once per round: the group keys ``v1`` lie
in the domain the aggregate's call over ``v2`` just evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import CatalogError, ExecutionError
from .operators import _dense_span_limit
from .types import BOOL, FLOAT64, INT64, TEXT, Column, dtype_for

#: Marker for scalar (literal) arguments inside evaluated argument lists.
@dataclass(frozen=True)
class ScalarArg:
    """A literal argument value, passed to UDFs as a Python scalar."""

    value: object


ArgValue = Column | ScalarArg


def _as_column(arg: ArgValue, length: int) -> Column:
    if isinstance(arg, Column):
        return arg
    return Column.constant(arg.value, length)


#: Function names :func:`repro.sqlengine.expressions.evaluate` handles
#: itself, with lazily evaluated arguments: no UDF may take one.
SPECIAL_FORMS = frozenset({"coalesce"})


def common_type(columns: Sequence[Column]) -> str:
    """The type a value of every one of ``columns`` promotes to: TEXT if
    any is text, else FLOAT64 if any is float, else INT64."""
    if any(col.sql_type == TEXT for col in columns):
        return TEXT
    if any(col.sql_type == FLOAT64 for col in columns):
        return FLOAT64
    return INT64


def _least_greatest(args: Sequence[ArgValue], length: int, pick_max: bool) -> Column:
    """Row-wise least/greatest ignoring NULLs (PostgreSQL semantics)."""
    columns = [_as_column(a, length) for a in args]
    if not columns:
        raise ExecutionError("least/greatest need at least one argument")
    sql_type = common_type(columns)
    if sql_type == TEXT:
        return _least_greatest_text(columns, length, pick_max)
    dtype = dtype_for(sql_type)
    if all(col.mask is None for col in columns):
        # NULL-free arguments — every round's ``reps`` call, once per
        # group: one ufunc per extra argument, and no fill, mask or
        # validity pass.
        pick = np.maximum if pick_max else np.minimum
        arrays = [col.values.astype(dtype, copy=False) for col in columns]
        if len(arrays) == 1:
            return Column(arrays[0].copy(), sql_type)
        best = pick(arrays[0], arrays[1])
        for values in arrays[2:]:
            pick(best, values, out=best)
        return Column(best, sql_type)
    extreme = (np.iinfo(np.int64).min if pick_max else np.iinfo(np.int64).max) \
        if sql_type == INT64 else (-np.inf if pick_max else np.inf)
    best = np.full(length, extreme, dtype=dtype)
    any_valid = np.zeros(length, dtype=bool)
    for col in columns:
        values = col.values.astype(dtype, copy=False)
        if col.mask is not None:
            values = np.where(col.mask, extreme, values)
            any_valid |= ~col.mask
        else:
            any_valid |= True
        best = np.maximum(best, values) if pick_max else np.minimum(best, values)
    mask = None if any_valid.all() else ~any_valid
    return Column(best, sql_type, mask)


def _least_greatest_text(
    columns: Sequence[Column], length: int, pick_max: bool
) -> Column:
    """Row-wise least/greatest over TEXT columns (lexicographic order,
    NULLs skipped).  TEXT values live in object arrays that may hold
    ``None``; the running best is only ever compared against rows where
    both sides are valid, so no ``None`` comparison can occur."""
    if any(col.sql_type != TEXT for col in columns):
        raise ExecutionError(
            "least/greatest cannot mix text and non-text arguments"
        )
    best = np.full(length, None, dtype=object)
    any_valid = np.zeros(length, dtype=bool)
    for col in columns:
        values = col.values
        valid = ~col.mask if col.mask is not None else None
        fresh = ~any_valid if valid is None else (valid & ~any_valid)
        best[fresh] = values[fresh]
        contested = np.flatnonzero(any_valid if valid is None
                                   else (valid & any_valid))
        if contested.size:
            current = best[contested]
            challenger = values[contested]
            take = np.asarray(
                challenger > current if pick_max else challenger < current,
                dtype=bool,
            )
            best[contested[take]] = challenger[take]
        any_valid |= fresh
    mask = None if any_valid.all() else ~any_valid
    return Column(best, TEXT, mask)


def _strict_unary(fn: Callable[[np.ndarray], np.ndarray], result_type: str | None = None):
    def call(args: Sequence[ArgValue], length: int) -> Column:
        if len(args) != 1:
            raise ExecutionError("function expects exactly one argument")
        col = _as_column(args[0], length)
        values = fn(col.values)
        sql_type = result_type or col.sql_type
        return Column(values.astype(dtype_for(sql_type), copy=False), sql_type, col.mask)

    return call


def _mod(args: Sequence[ArgValue], length: int) -> Column:
    if len(args) != 2:
        raise ExecutionError("mod expects two arguments")
    a = _as_column(args[0], length)
    b = _as_column(args[1], length)
    divisor = b.values
    if (divisor == 0).any():
        raise ExecutionError("division by zero in mod()")
    values = np.fmod(a.values, divisor).astype(np.int64)
    mask = _union_masks([a, b], length)
    return Column(values, INT64, mask)


def _nullif(args: Sequence[ArgValue], length: int) -> Column:
    if len(args) != 2:
        raise ExecutionError("nullif expects two arguments")
    a = _as_column(args[0], length)
    b = _as_column(args[1], length)
    equal = a.values == b.values
    mask = a.null_mask().copy()
    mask |= np.asarray(equal, dtype=bool) & ~b.null_mask()
    return Column(a.values, a.sql_type, mask if mask.any() else None)


def _union_masks(columns: Sequence[Column], length: int) -> np.ndarray | None:
    mask = None
    for col in columns:
        if col.mask is not None:
            mask = col.mask.copy() if mask is None else (mask | col.mask)
    return mask


class _EvaluatedDomain:
    """An immutable UDF's last evaluation: ``results[c]`` is its value at
    code ``c`` of ``dictionary`` under the literal arguments ``literals``,
    for every code ``present`` marks (``None``: every code).  Holding
    ``dictionary`` keeps its identity from being recycled; it is
    read-only, so identity implies content."""

    __slots__ = ("literals", "dictionary", "present", "results")

    def __init__(self, literals: tuple, dictionary: np.ndarray,
                 present: Optional[np.ndarray], results: np.ndarray):
        self.literals = literals
        self.dictionary = dictionary
        self.present = present
        self.results = results


class FunctionRegistry:
    """Name → implementation mapping for scalar functions."""

    def __init__(self) -> None:
        self._builtins: dict[str, Callable[[Sequence[ArgValue], int], Column]] = {}
        self._install_builtins()

    def _install_builtins(self) -> None:
        self._builtins["least"] = lambda a, n: _least_greatest(a, n, pick_max=False)
        self._builtins["greatest"] = lambda a, n: _least_greatest(a, n, pick_max=True)
        self._builtins["abs"] = _strict_unary(np.abs)
        self._builtins["floor"] = _strict_unary(np.floor, FLOAT64)
        self._builtins["ceil"] = _strict_unary(np.ceil, FLOAT64)
        self._builtins["sqrt"] = _strict_unary(np.sqrt, FLOAT64)
        self._builtins["sign"] = _strict_unary(np.sign, INT64)
        self._builtins["mod"] = _mod
        self._builtins["nullif"] = _nullif

    def register_udf(
        self,
        name: str,
        fn: Callable[..., np.ndarray],
        returns: str = INT64,
        replace: bool = True,
        immutable: bool = False,
    ) -> None:
        """Register a vectorised user-defined scalar function.

        ``fn`` receives one positional argument per SQL argument: numpy
        arrays for column-valued arguments, plain Python values for literal
        arguments.  It must return a numpy array of row values.  NULLs are
        strict: any NULL argument row yields a NULL result row.

        ``immutable`` declares, as PostgreSQL's ``IMMUTABLE`` does, that a
        row's result depends on that row's arguments alone.  The engine may
        then evaluate the function once per *distinct* value of an encoded
        column argument — over its dictionary, or the entries its rows
        hold — with the results gathered back per row, and not at all
        when the previous call's evaluation, for the same literals,
        already covers every row, or when there is no row (see the module
        docstring).  A function not so declared is called with every row,
        always.
        """
        lowered = name.lower()
        last: list[Optional[_EvaluatedDomain]] = [None]

        def evaluate(raw: list, n_calls: int) -> np.ndarray:
            result = np.asarray(fn(*raw))
            if result.ndim == 0:
                result = np.full(n_calls, result[()])
            if result.shape[0] != n_calls:
                raise ExecutionError(
                    f"UDF {name} returned {result.shape[0]} rows, expected {n_calls}"
                )
            return result

        def per_value(args: Sequence[ArgValue], column: Column,
                      length: int) -> Optional[np.ndarray]:
            """The result rows through one evaluation per distinct value
            (or none, when ``last`` already holds them); ``None`` for a
            plain column, or one whose dictionary is too large to mark
            presence in."""
            dictionary, codes = column.dictionary, column.codes
            if dictionary is None:
                return None
            literals = tuple((type(arg.value), arg.value)
                             if isinstance(arg, ScalarArg) else None
                             for arg in args)
            domain = last[0]
            if domain is not None and domain.dictionary is dictionary \
                    and domain.literals == literals \
                    and (domain.present is None
                         or domain.present[codes].all()):
                return domain.results[codes]

            def applied(domain_values: np.ndarray) -> np.ndarray:
                return evaluate(
                    [arg.value if isinstance(arg, ScalarArg) else domain_values
                     for arg in args], int(domain_values.shape[0]))

            span = int(dictionary.shape[0])
            if span <= length:
                # Every entry is a value of the stored column the
                # dictionary encodes: evaluate them all, no presence pass.
                present, results = None, applied(dictionary)
            elif span <= _dense_span_limit(length):
                # Only the entries that occur: a partial function must not
                # see a value that no row holds.
                present = np.zeros(span, dtype=bool)
                present[codes] = True
                occurring = np.flatnonzero(present)
                evaluated = applied(dictionary[occurring])
                results = np.zeros(span, dtype=evaluated.dtype)
                results[occurring] = evaluated
            else:
                return None
            last[0] = _EvaluatedDomain(literals, dictionary, present,
                                       results)
            return results[codes]

        def call(args: Sequence[ArgValue], length: int) -> Column:
            columns = [arg for arg in args if not isinstance(arg, ScalarArg)]
            result = None
            if immutable and length == 0:
                # No row to compute: the function is not called.
                result = np.empty(0, dtype=dtype_for(returns))
            elif immutable and len(columns) == 1:
                # The literals are the same for every row: one call per
                # distinct value of the one column argument.
                result = per_value(args, columns[0], length)
            if result is None:
                result = evaluate(
                    [arg.value if isinstance(arg, ScalarArg) else arg.values
                     for arg in args], length)
            mask = _union_masks(columns, length)
            if returns == TEXT:
                values = result.astype(object)
            else:
                values = result.astype(dtype_for(returns), copy=False)
            return Column(values, returns, mask)

        if lowered in SPECIAL_FORMS:
            raise CatalogError(f"{name!r} is a special form, not a function")
        if not replace and lowered in self._builtins:
            raise CatalogError(f"function {name!r} already exists")
        self._builtins[lowered] = call

    def lookup(self, name: str) -> Callable[[Sequence[ArgValue], int], Column]:
        try:
            return self._builtins[name.lower()]
        except KeyError:
            raise CatalogError(f"unknown function {name!r}")

    def exists(self, name: str) -> bool:
        return name.lower() in self._builtins
