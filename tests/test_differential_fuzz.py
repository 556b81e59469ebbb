"""Differential fuzzing: every statement against sqlite, every engine
configuration against the others.

ConnectIt's lesson (Dhulipala et al., 2020) is that connectivity kernels
only stay trustworthy when the many sampling/finish combinations are
differentially tested against a simple, *independent* reference.  This
engine's equivalent surface is the SELECT pipeline: plan-cache templating,
compiled physical plans, column pruning, join-chain fusion, fused
join->DISTINCT, GROUP BY over join chains, dictionary-encoded columns and
the join routes all rewrite how a statement executes.

This harness generates seeded random SELECT statements (join chains up to
depth 3, DISTINCT, GROUP BY with aggregates, LEFT OUTER JOIN — including
a dedicated arm grouping on the outer-padded final binding, where padded
rows must form NULL-key groups — negative constants, NULL-bearing
columns, IS NULL predicates, UNION ALL arms, subquery FROM items —
plain, aggregated, and
UNION ALL subqueries joined like tables, among them unfiltered scans of
one table's int columns, which stack those columns' joint encoding, under
a DISTINCT or a join — and calls of an immutable UDF
over dense, sparse, encoded and NULL-bearing columns, including the
contraction's ``least(udf(k), min(udf(v)))`` shape and the composition's
``coalesce(<nullable>, udf(...))``), three-argument COALESCE, a CASE
with an integer and a float branch, joins on two- and three-column keys,
one column NULL-bearing, projections of integers spread over 2^41, and
joins — inner and LEFT — whose
build side is a stored GROUP BY output, as each round's ``reps`` is,
joined back to its input; and, every few statements from a stream of
their own, GROUP BYs over a key that arrives sorted — a DISTINCT
subquery's leading column, or a stored DISTINCT output's, as each
round's ``reps`` reads the contraction's — beside sorted keys that must
not be reduced in place: NULL-bearing, float, text, one of two) over
small random tables, and holds
each statement to two contracts.  sqlite short-circuits COALESCE as the
engine does, so both evaluate a fallback over the same rows:

* **Row content, against an engine that shares nothing with ours.**  The
  statement runs unmodified on stdlib ``sqlite3`` (``tests/sqlite_oracle.py``
  — no common parser, planner, expression evaluator, aggregate code or
  NULL handling) and the default engine's result must equal sqlite's as a
  sorted row list.  SQL promises no row order, so none is compared here.
* **Everything else, between executions.**  Two executions must be
  bit-identical to one another — storage names, display names, column
  order, SQL types, null masks, non-null values *and row order*:

  * **planned** — the default engine, cold: the statement is parsed,
    templated and compiled.
  * **warm** — the same statement re-executed, so the warm template and
    cached physical plan are what executes (asserted: one
    ``physical_plan_hits`` per warm execution).

  A DISTINCT's row order is ascending key order, so the two executions
  must agree on it too.  The harness asserts that every branch of the
  one DISTINCT kernel met sqlite: codes packed (there is no size gate,
  so fuzz-sized tables are encoded like million-row ones), plain offsets
  packed, and two wide columns and NULL-bearing keys grouped.  Every
  full batch must have reduced a GROUP BY whose key arrived sorted in
  place (``group_sorts_skipped``), so sqlite referees that layout too.

The UDF is registered ``immutable`` on the engine, so a call over an
encoded column evaluates it once per occurring value and a later call
over the same dictionary reuses that evaluation (the warm pass always
can), and as a strict scalar callback on sqlite.  The harness asserts
that such an evaluation over a dictionary was built.

The input gates of the cache-conscious sort and probe primitives
(``operators.CACHE_KERNEL_MIN_ROWS``, ``PRESORTED_MAX_DESCENTS``) are
switched off, so every execution sorts with ``stable_argsort``'s tie
repair and probes with ``sorted_lookup``'s buckets on these tiny tables,
and a fused join→DISTINCT's block loop runs over blocks of
:data:`BLOCK_ROWS_UNDER_FUZZ` rows (``executor.BLOCK_ROWS``), a small
prime, so its blocks end mid-chain; every full batch must have run such
a loop over more than one block against sqlite.
The tables' keys are small integers, which
the kernels treat as a dense range; every other batch therefore runs with
the dense dispatch off (``DENSE_SPAN_FACTOR`` = ``DENSE_SPAN_FLOOR`` = 0),
so the same statements also cross the sparse-key kernels — sorted-index
and merge probes — that carry the contraction loop after round 1.  The
harness asserts that both kinds of route were taken, and both routes of
a build side that fills its key domain (``dense-offset``, on values and
on codes), which no span limit bounds — every
batch plants a join onto such a table (:func:`filling_builds`), so no
seed misses them — and that a joint encoding of two or more columns was
built.

A second harness (:func:`test_filtered_distinct_fuzz`) generates only
fused join->DISTINCTs under a WHERE over both sides of the join — the
contract's shape, whose DISTINCT takes the kept rows as positions, or as
the mask when the WHERE keeps at least 3/4 of them — and holds them to
the same two contracts.  Every batch plants DISTINCTs that engage both
selections, both packed word widths (32 and 64 bits) and a text column
(:func:`planted_distincts`).

Runs in tier-1 under a fixed seed.  Env knobs for CI:

* ``REPRO_FUZZ_ROUNDS`` — statement count (default 200);
* ``REPRO_FUZZ_SEED`` — generator seed (default 20200420).
"""

from __future__ import annotations

import os
import random
import re
from typing import Optional

import numpy as np
import pytest

from repro.sqlengine import Database, functions, operators

from .distinct_reference import BRANCHES, record_branches
from .sqlite_oracle import SqliteOracle, sorted_rows

FUZZ_ROUNDS = int(os.environ.get("REPRO_FUZZ_ROUNDS", "200"))

#: The rows per block of a fused join→DISTINCT under fuzz: a small prime,
#: so that the blocks of a few dozen chain rows end anywhere.
BLOCK_ROWS_UNDER_FUZZ = 7
FUZZ_SEED = int(os.environ.get("REPRO_FUZZ_SEED", "20200420"))

#: Fresh random tables (and databases) every this many statements, with a
#: DDL churn step (append + rename round-trip) halfway through each batch.
BATCH = 40

#: Every this many statements of a batch, a GROUP BY over a key that
#: arrives sorted (:func:`_sorted_key_group`) runs beside them.
SORTED_KEY_EVERY = 4

TABLES = {
    "t0": ("k0", "a0", "n0"),
    "t1": ("k1", "a1", "n1"),
    "t2": ("k2", "a2", "n2"),
}
#: Each table's fourth column: integers spread over 2^41, drawn from a
#: few per batch so that rows repeat.  Offsets of two of them overflow a
#: word, so a DISTINCT over both ranks them.  They are projected as they
#: are, never computed on: sqlite turns an overflowing product into a
#: float.
WIDE = {"t0": "b0", "t1": "b1", "t2": "b2"}
WIDE_SPREAD = 1 << 40
#: A table use's wide column, by the key column its columns start with.
WIDE_BY_KEY = {TABLES[name][0]: wide for name, wide in WIDE.items()}

#: Alias pool; t0 appears twice so chains can re-join a table (the paper's
#: per-round ``reps`` pattern) and bare column names can collide.
ALIASES = [("t0", "x"), ("t1", "y"), ("t2", "z"), ("t0", "w")]


# ---------------------------------------------------------------------------
# engine configurations
# ---------------------------------------------------------------------------


def planned_db() -> Database:
    return Database(n_segments=4)


def fuzz_udf(scale, x):
    """The harness's immutable UDF: an integer polynomial that numpy and
    sqlite's scalar callback compute alike."""
    x = np.asarray(x, dtype=np.int64)
    return x * x * scale + 3 * x


#: Literal first arguments of ``udf``: few, so calls repeat domains.
UDF_SCALES = (1, 2, -3)

#: ELSE values of the CASE arm, whose THEN branch is an integer column.
CASE_FLOATS = ("2.5", "-1.5", "0.5")

#: Stored GROUP BY outputs, made after each batch's tables, as the
#: contraction's ``reps`` is: sorted unique keys, which fill their domain
#: whenever no key of it is missing.  ``h0.hk`` is an expanding join's
#: encoded gather of ``t1.k1``, so ``g0.g`` is on codes over its
#: dictionary; ``g1.g`` is plain.
DERIVED_TABLES = [
    "create table h0 as select y.k1 hk, y.a1 ha from t0 as x, t1 as y "
    "where x.k0 = y.k1",
    "create table g0 as select hk g, min(ha) m from h0 group by hk",
    "create table g1 as select k2 g, count(*) m from t2 group by k2",
    # A stored DISTINCT output: its leading column is in key order.
    "create table d0 as select distinct k1 dk, a1 da, n1 dn from t1",
]

#: A derived GROUP BY output joined back to its input (or to a table of
#: the same keys): (probe table, its key, its value column, build table).
GROUPED_JOINS = [
    ("h0", "hk", "ha", "g0"),
    ("t1", "k1", "n1", "g0"),
    ("t2", "k2", "n2", "g1"),
    ("t0", "k0", "n0", "g1"),
]

#: Statement shape -> pattern of the SQL that has it.
SHAPE_PATTERNS = {
    "coalesce_udf": r"coalesce\(\w+\.\w+, udf\(",
    "coalesce_three": r"coalesce\(\w+\.\w+, \w+\.\w+, -?\d+\)",
    "case_int_float": r"case when .* else -?\d+\.\d+ end",
    "grouped_join": r" as q on \(p\.\w+ = q\.g\)",
    "stacked_scans": r"\(select \w+ c0, \w+ c1 from \w+ union all ",
    # GROUP BYs over a key that arrives sorted (_sorted_key_group).
    "sorted_key": r"\(select distinct k\d c0, .* group by s\.c0$",
    "stored_distinct_key": r" from d0 as s group by s\.dk$",
    "sorted_null_key": r"\(select distinct n\d c0, ",
    "sorted_float_key": r"\(select distinct k\d \* 0\.5 c0, ",
    "sorted_text_key": r"\(select distinct case when .* end c0, ",
    "two_sorted_keys": r" group by s\.(c0|dk), s\.",
}


# ---------------------------------------------------------------------------
# statement generation
# ---------------------------------------------------------------------------


def table_statements(rand: random.Random) -> list[str]:
    """CREATE + INSERT statements for one batch of small random tables."""
    statements = []
    for name, (key, val, nullable) in TABLES.items():
        n_rows = rand.randint(8, 28)
        statements.append(
            f"create table {name} ({key} int64, {val} int64, "
            f"{nullable} int64, {WIDE[name]} int64)"
        )
        wide = [rand.randint(-WIDE_SPREAD, WIDE_SPREAD) for _ in range(4)]
        rows = []
        for _ in range(n_rows):
            null = "null" if rand.random() < 0.25 else str(rand.randint(0, 4))
            rows.append(f"({rand.randint(0, 6)}, {rand.randint(-5, 5)}, "
                        f"{null}, {rand.choice(wide)})")
        statements.append(f"insert into {name} values {', '.join(rows)}")
    return statements + DERIVED_TABLES


def churn_statements(rand: random.Random) -> list[str]:
    """Mid-batch DDL churn: appends and a rename round-trip, which must
    invalidate cached indexes and survive plan re-validation."""
    target = rand.choice(list(TABLES))
    key, val, nullable = TABLES[target]
    null = "null" if rand.random() < 0.5 else str(rand.randint(0, 4))
    return [
        f"insert into {target} values "
        f"({rand.randint(0, 6)}, {rand.randint(-5, 5)}, {null}, "
        f"{rand.randint(-WIDE_SPREAD, WIDE_SPREAD)})",
        f"alter table {target} rename to churned",
        f"alter table churned rename to {target}",
    ]


def _table_use(table: str, alias: str) -> tuple:
    """A FROM use: (positional columns, alias, FROM-clause fragment).

    Position 0 is the join-key-ish column, 1 the value column, 2 the
    NULL-bearing column — subquery uses expose the same positional shape
    under renamed columns, so every generation helper works on both.
    """
    return (TABLES[table], alias, f"{table} as {alias}")


def _subquery_use(rand: random.Random, index: int) -> tuple:
    """A subquery FROM item, joined and filtered like a table.

    Three inner shapes: a plain renaming projection (with an optional
    pushable predicate), a GROUP BY aggregation, and a two-arm UNION ALL —
    each exposing the (key-ish, value-ish, nullable) positional contract.
    """
    table = rand.choice(list(TABLES))
    key, val, nul = TABLES[table]
    alias = f"sq{index}"
    roll = rand.random()
    if roll < 0.3:
        inner = (f"select {key} a, min({nul}) b, count(*) c "
                 f"from {table} group by {key}")
    elif roll < 0.45:
        other = rand.choice(list(TABLES))
        okey, oval, onul = TABLES[other]
        inner = (f"select {key} a, {val} b, {nul} c from {table} "
                 f"union all select {okey} a, {oval} b, {onul} c "
                 f"from {other}")
    elif roll < 0.7:
        inner = (f"select {key} a, {val} b, {nul} c from {table} "
                 f"where {val} > {rand.randint(-4, 2)}")
    else:
        inner = f"select {key} a, {val} b, {nul} c from {table}"
    return (("a", "b", "c"), alias, f"({inner}) as {alias}")


def _generate_uses(rand: random.Random) -> list[tuple]:
    n_uses = rand.randint(1, 4)  # up to a depth-3 join chain
    uses = [_table_use(t, a) for t, a in rand.sample(ALIASES, n_uses)]
    if rand.random() < 0.25:
        # Swap one table use for a subquery FROM item.
        position = rand.randrange(n_uses)
        uses[position] = _subquery_use(rand, position)
    return uses


def _join_condition(rand: random.Random, left: tuple, right: tuple) -> str:
    """One equality edge between two FROM uses.  Occasionally joins on the
    NULL-bearing column, exercising the kernels' NULL-key filtering, and
    now and then on two or all three columns, the NULL-bearing one last: a
    composite key, packed into one word per row."""
    left_cols, left_alias, _ = left
    right_cols, right_alias, _ = right
    if rand.random() < 0.05:
        return " and ".join(
            f"{left_alias}.{left_col} = {right_alias}.{right_col}"
            for left_col, right_col in zip(left_cols, right_cols))
    if rand.random() < 0.15:
        first = rand.choice((0, 1))
        return (f"{left_alias}.{left_cols[first]} = "
                f"{right_alias}.{right_cols[first]} and "
                f"{left_alias}.{left_cols[2]} = {right_alias}.{right_cols[2]}")
    left_col = left_cols[0] if rand.random() < 0.75 else left_cols[2]
    right_col = right_cols[0] if rand.random() < 0.75 else right_cols[2]
    return f"{left_alias}.{left_col} = {right_alias}.{right_col}"


def _predicate(rand: random.Random, uses: list[tuple]) -> str:
    columns, alias, _ = rand.choice(uses)
    column = rand.choice(columns)
    if rand.random() < 0.15:
        negated = "not " if rand.random() < 0.5 else ""
        return f"{alias}.{column} is {negated}null"
    op = rand.choice([">", "<", "!=", "="])
    return f"{alias}.{column} {op} {rand.randint(-4, 4)}"


def _projection_item(rand: random.Random, uses: list[tuple],
                     position: int) -> str:
    columns, alias, _ = rand.choice(uses)
    column = rand.choice(columns)
    ref = f"{alias}.{column}"
    nullable = f"{alias}.{columns[2]}"
    roll = rand.random()
    if roll < 0.12:
        # Small ids are a dense span; scaled up they are sparse.
        scaled = " * 1000003" if rand.random() < 0.3 else ""
        return f"udf({rand.choice(UDF_SCALES)}, {ref}{scaled}) c{position}"
    if roll < 0.17:
        # The composition's shape: a UDF fallback for the NULL rows only.
        return (f"coalesce({nullable}, udf({rand.choice(UDF_SCALES)}, "
                f"{ref})) c{position}")
    if roll < 0.21:
        other_columns, other_alias, _ = rand.choice(uses)
        return (f"coalesce({nullable}, "
                f"{other_alias}.{rand.choice(other_columns)}, "
                f"{rand.randint(-3, 3)}) c{position}")
    if roll < 0.25:
        # An integer branch and a float one: the result is float.
        return (f"case when {ref} > {rand.randint(-2, 3)} then {ref} "
                f"else {rand.choice(CASE_FLOATS)} end c{position}")
    if roll < 0.32:
        return f"{ref} + {rand.randint(-3, 3)} c{position}"
    if roll < 0.4:
        return f"{ref} * -1 c{position}"
    if roll < 0.55:
        return f"{ref} c{position}"
    if roll < 0.75 and columns[0] in WIDE_BY_KEY:
        return f"{alias}.{WIDE_BY_KEY[columns[0]]}"
    return ref


def _grouped_join(rand: random.Random) -> str:
    """A stored GROUP BY output as the build side of a join with its
    input: the join the contraction runs against each round's ``reps``."""
    probe, key, value, build = rand.choice(GROUPED_JOINS)
    kind = "left outer join" if rand.random() < 0.4 else "join"
    distinct = "distinct " if rand.random() < 0.3 else ""
    sql = (f"select {distinct}p.{key}, p.{value}, q.m from {probe} as p "
           f"{kind} {build} as q on (p.{key} = q.g)")
    if rand.random() < 0.3:
        sql += f" where p.{value} is not null"
    return sql


def _stacked_scans(rand: random.Random) -> str:
    """A UNION ALL of unfiltered projections of one stored table's int
    columns — the setup query's symmetrised shape, or three arms — which
    stacks their joint encoding, or one that stays plain: an arm over a
    second table, a filtered arm, a NULL-bearing column.  A DISTINCT or a
    join with a stored GROUP BY output sits on top."""
    table = rand.choice(list(TABLES) + ["h0"])
    key, val, nullable = TABLES.get(table, ("hk", "ha", None))
    second = val if nullable is None or rand.random() < 0.85 else nullable
    arms = [f"select {key} c0, {second} c1 from {table}",
            f"select {second} c0, {key} c1 from {table}"]
    roll = rand.random()
    if roll < 0.25:
        arms.append(f"select {key} c0, {key} c1 from {table}")
    elif roll < 0.4:
        other = rand.choice([name for name in TABLES if name != table])
        other_key, other_val, _ = TABLES[other]
        arms[1] = f"select {other_val} c0, {other_key} c1 from {other}"
    elif roll < 0.55:
        arms[1] += f" where {key} > {rand.randint(-1, 4)}"
    union = " union all ".join(arms)
    if rand.random() < 0.5:
        return f"select distinct u.c0, u.c1 from ({union}) as u"
    build = rand.choice(("g0", "g1"))
    kind = "left outer join" if rand.random() < 0.3 else "join"
    return (f"select u.c0, u.c1, q.m from ({union}) as u "
            f"{kind} {build} as q on (u.c0 = q.g)")


def _sorted_key_group(rand: random.Random) -> str:
    """A GROUP BY over a key that arrives sorted — a DISTINCT subquery's
    leading column, or the stored DISTINCT output's — which is reduced in
    the runs it lies in, under every aggregate kind and the contraction's
    ``least(udf(k), min(udf(v)))``; or a sorted key that must not be: a
    NULL-bearing, float or text one, or one of two keys."""
    table = rand.choice(list(TABLES))
    key, val, nullable = TABLES[table]
    lead, integer = key, True
    roll = rand.random()
    if roll < 0.12:
        lead = nullable
    elif roll < 0.24:
        lead, integer = f"{key} * 0.5", False
    elif roll < 0.36:
        lead, integer = (f"case when {key} > {rand.randint(1, 4)} "
                         f"then 'hi' else 'lo' end"), False
    if lead == key and rand.random() < 0.3:
        columns, from_sql = ("dk", "da", "dn"), "d0 as s"
    else:
        columns = ("c0", "c1", "c2")
        from_sql = (f"(select distinct {lead} c0, {val} c1, {nullable} c2 "
                    f"from {table}) as s")
    keys = [f"s.{columns[0]}"]
    if rand.random() < 0.2:
        keys.append(f"s.{columns[1]}")
    items = keys + ["count(*) c"]
    for position, fn in enumerate(
            rand.sample(["min", "max", "sum", "avg", "count"],
                        rand.randint(1, 3))):
        argument = f"s.{rand.choice(columns[1:])}"
        if fn == "count" and rand.random() < 0.4:
            items.append(f"count(distinct {argument}) d{position}")
        else:
            items.append(f"{fn}({argument}) f{position}")
    if integer and rand.random() < 0.3:
        scale = rand.choice(UDF_SCALES)
        items.append(f"least(udf({scale}, {keys[0]}), "
                     f"min(udf({scale}, s.{columns[1]}))) u")
    return f"select {', '.join(items)} from {from_sql} " \
        f"group by {', '.join(keys)}"


def filling_builds(rand: random.Random) -> tuple[list[str], list[str]]:
    """Tables whose key fills its domain, and a join onto each — planted
    in every batch, so both routes that skip the table are met there
    whatever the batch's random tables hold: ``f1`` is the DISTINCT of a
    stacked scan's first column, codes that cover the joint dictionary
    (``dense-offset`` on codes); ``f2`` holds a contiguous run of values,
    one row each, in order (``dense-offset`` on values).  A filtered
    DISTINCT over the first join packs codes of its two rows per edge —
    at least 16, so its block loop crosses blocks under fuzz.  Returns
    (the tables' statements, the joins)."""
    table = rand.choice(list(TABLES))
    key, val, _ = TABLES[table]
    stacked = (f"(select {key} c0, {val} c1 from {table} union all "
               f"select {val} c0, {key} c1 from {table}) as u")
    low = rand.randint(-5, 0)
    rows = ", ".join(f"({low + offset}, {rand.randint(-3, 3)})"
                     for offset in range(rand.randint(4, 12)))
    probe = rand.choice((key, val))
    return ([f"create table f1 as select distinct u.c0 f from {stacked}",
             "create table f2 (f int64, c int64)",
             f"insert into f2 values {rows}"],
            [f"select u.c1, q.f from {stacked} join f1 as q on (u.c0 = q.f)",
             f"select x.{probe}, q.c from {table} as x join f2 as q on "
             f"(x.{probe} = q.f)",
             f"select distinct u.c1, q.f from {stacked} join f1 as q on "
             f"(u.c0 = q.f) where u.c1 + 1 > q.f"])


def generate_query(rand: random.Random) -> str:
    if rand.random() < 0.08:
        return _stacked_scans(rand)
    if rand.random() < 0.1:
        return _grouped_join(rand)
    if rand.random() < 0.15:
        # UNION ALL: two projection cores of identical arity (every fuzz
        # column is int64, so the arms always concatenate cleanly).
        n_items = rand.randint(1, 3)
        return (f"{_generate_core(rand, forced_items=n_items)} union all "
                f"{_generate_core(rand, forced_items=n_items)}")
    return _generate_core(rand)


def _generate_core(rand: random.Random,
                   forced_items: Optional[int] = None) -> str:
    uses = _generate_uses(rand)
    n_uses = len(uses)
    explicit_joins = rand.random() < 0.5 and n_uses >= 2
    left_join_tail = rand.random() < 0.3 and n_uses >= 2

    conditions = [
        _join_condition(rand, uses[i], uses[i + 1])
        for i in range(n_uses - 1)
    ]
    predicates = [_predicate(rand, uses)
                  for _ in range(rand.randint(0, 2))]

    if explicit_joins:
        from_sql = uses[0][2]
        for i in range(1, n_uses):
            kind = ("left outer join"
                    if left_join_tail and i == n_uses - 1 else "join")
            from_sql += f" {kind} {uses[i][2]} on ({conditions[i - 1]})"
        where = predicates
    else:
        from_sql = ", ".join(use[2] for use in uses)
        where = conditions + predicates

    if forced_items is None and rand.random() < 0.45:
        # GROUP BY + aggregates over random argument columns.
        group_uses = uses[:1] if rand.random() < 0.6 else uses
        if explicit_joins and left_join_tail and rand.random() < 0.6:
            # Dedicated arm: group keys on the outer-padded final binding,
            # where padded rows must form their own NULL-key groups on
            # every configuration.
            group_uses = uses[-1:]
        keys = []
        for _ in range(rand.randint(1, 2)):
            columns, alias, _ = rand.choice(group_uses)
            key = f"{alias}.{rand.choice(columns)}"
            if key not in keys:
                keys.append(key)
        items = list(keys) + ["count(*) c"]
        for position, fn in enumerate(
                rand.sample(["min", "max", "sum", "avg", "count"],
                            rand.randint(1, 3))):
            columns, alias, _ = rand.choice(uses)
            argument = f"{alias}.{rand.choice(columns)}"
            if fn == "count" and rand.random() < 0.4:
                items.append(f"count(distinct {argument}) d{position}")
            else:
                items.append(f"{fn}({argument}) f{position}")
        if rand.random() < 0.3:
            # The contraction's reps shape: the group key and the
            # aggregated column through one UDF.
            columns, alias, _ = rand.choice(uses)
            scale = rand.choice(UDF_SCALES)
            items.append(f"least(udf({scale}, {keys[0]}), "
                         f"min(udf({scale}, {alias}.{rand.choice(columns)})))"
                         " u")
        select_sql = ", ".join(items)
        tail = f" group by {', '.join(keys)}"
        distinct = ""
    else:
        n_items = forced_items if forced_items is not None \
            else rand.randint(1, 4)
        select_sql = ", ".join(
            _projection_item(rand, uses, position)
            for position in range(n_items)
        )
        tail = ""
        distinct = "distinct " if rand.random() < 0.4 else ""

    sql = f"select {distinct}{select_sql} from {from_sql}"
    if where:
        sql += f" where {' and '.join(where)}"
    return sql + tail


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------


def assert_identical(sql: str, config: str, got, expected) -> None:
    __tracebackhide__ = True
    assert got.names == expected.names, (config, sql)
    assert got.display_names == expected.display_names, (config, sql)
    for name in expected.names:
        mine = got.column(name)
        theirs = expected.column(name)
        assert mine.sql_type == theirs.sql_type, (config, sql, name)
        mask_mine = mine.null_mask()
        mask_theirs = theirs.null_mask()
        assert np.array_equal(mask_mine, mask_theirs), (config, sql, name)
        valid = ~mask_theirs
        assert np.array_equal(mine.values[valid], theirs.values[valid]), \
            (config, sql, name)


def test_differential_fuzz(monkeypatch):
    import repro.sqlengine.executor as executor_module
    import repro.sqlengine.table as table_module

    monkeypatch.setattr(operators, "CACHE_KERNEL_MIN_ROWS", 1)
    monkeypatch.setattr(operators, "PRESORTED_MAX_DESCENTS", -1)
    monkeypatch.setattr(executor_module, "BLOCK_ROWS", BLOCK_ROWS_UNDER_FUZZ)
    # Block loops over more than one block.
    crossed = {"loops": 0}
    blocked_distinct = executor_module.packed_distinct

    def recording_blocked_distinct(keys, n_rows, blocks):
        crossed["loops"] += n_rows > BLOCK_ROWS_UNDER_FUZZ
        return blocked_distinct(keys, n_rows, blocks)

    monkeypatch.setattr(executor_module, "packed_distinct",
                        recording_blocked_distinct)
    # (route kind, whether the keys were codes over one dictionary)
    routes: set[tuple[str, bool]] = set()
    composite = {"joins": 0, "three_column": 0}
    join_rows = executor_module.join_rows

    def recording_join_rows(left_keys, right_keys, *args):
        joined = join_rows(left_keys, right_keys, *args)
        dictionary = left_keys[0].dictionary
        routes.add((joined[0], len(left_keys) == 1 and dictionary is not None
                    and dictionary is right_keys[0].dictionary))
        composite["joins"] += len(left_keys) > 1
        composite["three_column"] += len(left_keys) > 2
        return joined

    monkeypatch.setattr(executor_module, "join_rows", recording_join_rows)
    domains = {"dictionary": 0}
    evaluated_domain = functions._EvaluatedDomain

    def recording_domain(*args):
        domains["dictionary"] += 1
        return evaluated_domain(*args)

    monkeypatch.setattr(functions, "_EvaluatedDomain", recording_domain)
    # Joint encodings of two or more columns built: the stacked scans'.
    joint = {"built": 0}
    joint_encoding = table_module.Table.joint_encoding

    def recording_joint_encoding(table, column_names):
        names = set(column_names)
        encoded = joint_encoding(table, names)
        joint["built"] += encoded is not None and len(names) > 1
        return encoded

    monkeypatch.setattr(table_module.Table, "joint_encoding",
                        recording_joint_encoding)
    # DISTINCT branches whose output met sqlite.
    taken = record_branches(monkeypatch)
    diffed: set[str] = set()
    rand = random.Random(FUZZ_SEED)
    sorted_rand = random.Random(FUZZ_SEED + 1)
    fill_rand = random.Random(FUZZ_SEED + 2)
    executed = 0
    engaged = {"chain": 0, "fused": 0, "left_chain": 0, "encoded": 0}
    shapes = {"union_all": 0, "subquery_from": 0, "outer_group": 0,
              "inner_group": 0, "distinct": 0, "udf": 0, "udf_reps": 0,
              **dict.fromkeys(SHAPE_PATTERNS, 0)}
    dense_dispatch = {name: getattr(operators, name)
                      for name in ("DENSE_SPAN_FACTOR", "DENSE_SPAN_FLOOR")}
    while executed < FUZZ_ROUNDS:
        # Odd batches: no key range counts as dense.
        for name, shipped in dense_dispatch.items():
            monkeypatch.setattr(operators, name,
                                0 if (executed // BATCH) % 2 else shipped)
        db = planned_db()
        db.create_function("udf", fuzz_udf, immutable=True)
        oracle = SqliteOracle()
        oracle.create_function("udf", fuzz_udf)
        # Drawn from a stream of its own, like the sorted-key GROUP BYs.
        fill_tables, fill_joins = filling_builds(fill_rand)
        for statement in table_statements(rand) + fill_tables:
            oracle.execute(statement)
            db.execute(statement)
        batch_rounds = min(BATCH, FUZZ_ROUNDS - executed)
        skipped = db.stats.group_sorts_skipped
        loops = crossed["loops"]
        for batch_position in range(batch_rounds):
            if batch_position == BATCH // 2:
                for statement in churn_statements(rand):
                    oracle.execute(statement)
                    db.execute(statement)
            sqls = [generate_query(rand)]
            if batch_position % SORTED_KEY_EVERY == 0:
                # Drawn from a stream of its own, so the other statements
                # stay those the seed generated without it.
                sqls.append(_sorted_key_group(sorted_rand))
            for sql in sqls:
                if " union all " in sql:
                    shapes["union_all"] += 1
                if "(select" in sql:
                    shapes["subquery_from"] += 1
                if "left outer join" in sql and " group by " in sql:
                    shapes["outer_group"] += 1
                # An explicit inner JOIN, or a comma after a FROM alias.
                if re.search(r"(?<!outer) join |as \w+, ", sql) \
                        and " group by " in sql:
                    shapes["inner_group"] += 1
                shapes["distinct"] += "select distinct " in sql
                shapes["udf"] += "udf(" in sql
                shapes["udf_reps"] += "least(udf(" in sql
                for shape, pattern in SHAPE_PATTERNS.items():
                    shapes[shape] += re.search(pattern, sql) is not None
            if batch_position == 0:
                sqls += fill_joins  # held to both contracts, not counted
            for sql in sqls:
                taken.clear()
                planned = db.execute(sql).relation
                # Warm pass: the cached template's physical plan re-executes.
                plan_hits = db.stats.physical_plan_hits
                warm = db.execute(sql).relation
                assert_identical(sql, "warm", warm, planned)
                assert db.stats.physical_plan_hits == plan_hits + 1, sql
                # Row content: equal to sqlite's as multisets of rows.
                assert sorted_rows(planned.rows()) == \
                    sorted_rows(oracle.execute(sql)), sql
                diffed.update(taken)
                engaged["encoded"] += any(
                    planned.column(name).codes is not None
                    for name in planned.names)
            executed += 1
        if batch_rounds == BATCH:
            # A GROUP BY over a key that arrived sorted met sqlite.
            assert db.stats.group_sorts_skipped > skipped
            # So did a block loop over more than one block.
            assert crossed["loops"] > loops
        engaged["chain"] += db.stats.join_chain_fusions
        engaged["left_chain"] += db.stats.left_chain_fusions
        engaged["fused"] += db.stats.fused_pipelines
        db.close()
        oracle.close()
    assert executed == FUZZ_ROUNDS
    # The fuzz run must actually exercise the paths it claims to pin.
    assert engaged["chain"] > 0
    assert engaged["left_chain"] > 0
    assert engaged["fused"] > 0
    assert engaged["encoded"] > 0  # results that left the engine encoded
    kinds = {kind for kind, _ in routes}
    assert kinds & {"dense-unique", "dense-runs"}
    # A build side that fills its domain skips the table, on values and
    # on codes.
    assert {("dense-offset", False), ("dense-offset", True)} <= routes, routes
    if FUZZ_ROUNDS > BATCH:  # a sparse-key batch ran
        assert "sorted" in kinds  # note "merge"
    assert composite["joins"] > 0  # a two-column key met the oracle
    assert composite["three_column"] > 0
    # Every DISTINCT branch met the oracle: the wide columns' pairs are
    # grouped.
    assert diffed == set(BRANCHES), diffed
    # ... and actually generate the statement shapes it claims to cover.
    assert shapes["union_all"] > 0
    assert shapes["subquery_from"] > 0
    assert shapes["outer_group"] > 0
    assert shapes["inner_group"] > 0
    assert shapes["distinct"] > 0
    assert shapes["udf"] > 0 and shapes["udf_reps"] > 0
    assert all(shapes[shape] > 0 for shape in SHAPE_PATTERNS), shapes
    assert domains["dictionary"] > 0
    assert joint["built"] > 0


# ---------------------------------------------------------------------------
# filtered DISTINCT: a fused join->DISTINCT's WHERE as row positions
# ---------------------------------------------------------------------------

#: The text table the filtered-DISTINCT fuzz joins for a text column.
TEXT_WORDS = ("", "a", "ab", "b", "pear")


def text_table_statements(rand: random.Random) -> list[str]:
    """A small table of keys and NULL-bearing text."""
    rows = []
    for _ in range(rand.randint(4, 12)):
        text = "null" if rand.random() < 0.25 \
            else f"'{rand.choice(TEXT_WORDS)}'"
        rows.append(f"({rand.randint(0, 6)}, {text})")
    return ["create table s0 (k int64, s text)",
            f"insert into s0 values {', '.join(rows)}"]


def _contract_join(rand: random.Random,
                   twice: bool = True) -> tuple[str, str, list[str]]:
    """An edge-like table joined twice to a stored GROUP BY output, as the
    contraction's contract joins the edges to ``reps`` (or once, on its
    key, unless ``twice``): (the probe table, the FROM clause, its
    integer columns)."""
    probe = rand.choice(list(TABLES))
    key, val, nullable = TABLES[probe]
    build = rand.choice(("g0", "g1"))
    numeric = ["r2.g", "r2.m", f"e.{key}", f"e.{val}", f"e.{nullable}"]
    if not twice:
        return (probe, f"{probe} as e join {build} as r2 on (e.{key} = r2.g)",
                numeric)
    from_sql = (f"{probe} as e join {build} as r1 on (e.{key} = r1.g) "
                f"join {build} as r2 on (e.{val} = r2.g)")
    return probe, from_sql, ["r1.g", "r1.m"] + numeric


def _residual(rand: random.Random, numeric: list[str]) -> str:
    """A comparison of two columns of different bindings: a WHERE term no
    scan can take, so it stays above the join."""
    left = rand.choice(numeric)
    right = rand.choice([ref for ref in numeric
                         if ref.split(".")[0] != left.split(".")[0]])
    offset = rand.choice(("", f" + {rand.randint(-2, 2)}"))
    return (f"{left} {rand.choice(('!=', '<', '>', '='))} "
            f"{right}{offset}")


def _filtered_distinct(rand: random.Random) -> str:
    """A DISTINCT of plain columns directly above a join, under a WHERE
    over both sides of it — the contraction's contract, whose build-side
    gathers arrive dictionary-encoded.  A text join, a LEFT JOIN tail,
    NULL-bearing operands, a column of integers spread over 2^41 (packed
    into int64 words), a predicate column the DISTINCT does not project,
    and WHEREs that keep every row or none ride along."""
    probe, from_sql, numeric = _contract_join(rand)
    key, val, nullable = TABLES[probe]
    projectable = numeric + [f"e.{WIDE[probe]}"]
    if rand.random() < 0.25:
        from_sql += f" join s0 as s on (e.{key} = s.k)"
        projectable.append("s.s")
    if rand.random() < 0.3:
        tail = rand.choice(("g0", "g1"))
        from_sql += (f" left outer join {tail} as q on "
                     f"(e.{rand.choice((key, val, nullable))} = q.g)")
        numeric += ["q.g", "q.m"]
        projectable += ["q.g", "q.m"]
    roll = rand.random()
    if roll < 0.1:
        where = ["r1.g + r2.g > -1000"]  # keeps every row
    elif roll < 0.2:
        where = ["r1.m + r2.g < -1000"]  # keeps no row
    else:
        where = [_residual(rand, numeric)
                 for _ in range(rand.randint(1, 2))]
    items = [f"{ref} c{position}" if rand.random() < 0.5 else ref
             for position, ref in enumerate(
                 rand.sample(projectable, rand.randint(1, 3)))]
    return (f"select distinct {', '.join(items)} from {from_sql} "
            f"where {' and '.join(where)}")


#: What each planted fused DISTINCT must engage: (its items' kind, the
#: selection its WHERE hands it).
PLANTED_DISTINCTS = [("text", "positions"), ("narrow", "mask"),
                     ("narrow", "positions"), ("wide", "mask"),
                     ("wide", "positions")]


def planted_distincts(rand: random.Random, oracle) -> list[str]:
    """Fused DISTINCTs that engage every selection and word width, planted
    in every batch whatever its random tables hold: a WHERE keeping at
    least ``DISTINCT_MASK_MIN_KEPT`` of the rows but not all (the mask) or
    fewer but some (positions) — of the one block a join of these tiny
    tables makes — over a text column (joined alone to the edge-like
    table), narrow columns or the 2^41-spread one, whose span over the
    kept rows, and so over the column the block loop reads its bounds
    off, needs an int64 word.  Each WHERE is drawn until sqlite's counts
    show it qualifies."""
    from repro.sqlengine.operators import DISTINCT_MASK_MIN_KEPT

    def scalar(sql: str):
        (value,), = oracle.execute(sql)
        return value

    planted = []
    for kind, selection in PLANTED_DISTINCTS:
        for _ in range(1000):
            # One join half the time: a batch whose contract joins match 3
            # rows or fewer has no WHERE keeping 3/4 of them but not all.
            probe, from_sql, numeric = _contract_join(
                rand, twice=rand.random() < 0.5)
            key, val, nullable = TABLES[probe]
            items = ["r2.g", f"e.{key}"]
            if kind == "text":
                # One join, so that small text tables still match rows.
                from_sql = f"{probe} as e join s0 as s on (e.{key} = s.k)"
                numeric = [f"e.{key}", f"e.{val}", f"e.{nullable}", "s.k"]
                items = ["s.s", f"e.{val}"]
            elif kind == "wide":
                items = [f"e.{WIDE[probe]}", "r2.g"]
            where = " and ".join(_residual(rand, numeric)
                                 for _ in range(rand.randint(1, 2)))
            n_rows = scalar(f"select count(*) from {from_sql}")
            kept = scalar(f"select count(*) from {from_sql} where {where}")
            if selection == "mask":
                fits = DISTINCT_MASK_MIN_KEPT * n_rows <= kept < n_rows
            else:
                fits = 0 < kept < DISTINCT_MASK_MIN_KEPT * n_rows
            if fits and kind == "wide":
                fits = scalar(f"select max(e.{WIDE[probe]}) - "
                              f"min(e.{WIDE[probe]}) from {from_sql} "
                              f"where {where}") \
                    >= 1 << operators.NARROW_WORD_BITS
            if fits:
                planted.append(f"select distinct {', '.join(items)} "
                               f"from {from_sql} where {where}")
                break
        else:
            raise AssertionError(f"no {kind} DISTINCT over {selection} "
                                 f"could be planted")
    return planted


def test_filtered_distinct_fuzz(monkeypatch):
    """Fused join->DISTINCTs under a residual WHERE, against sqlite and
    against their own warm re-execution and one whose block loop runs in
    blocks of :data:`BLOCK_ROWS_UNDER_FUZZ` rows.  Keys that pack run as
    a block loop, each block packing the rows it keeps, as positions or
    as the mask when the WHERE keeps most of them; the harness asserts
    every way those rows are served was generated: encoded and plain
    words packed block by block, NULL-bearing and text columns filtered
    first, a WHERE that keeps every row and one that keeps none, a LEFT
    JOIN in the chain — and in every batch both selections and both word
    widths (:func:`planted_distincts`)."""
    import repro.sqlengine.executor as executor_module

    engaged = {"encoded": 0, "plain": 0, "nulls": 0, "text": 0,
               "kept_all": 0, "kept_none": 0, "left_tail": 0}
    batch: set = set()  # selections and word widths met in this batch
    fallback = {"plan": None}  # a fused core whose keys did not pack
    blocked = executor_module.Executor._blocked_distinct
    blocked_distinct = executor_module.packed_distinct
    distinct = executor_module.Executor._distinct
    pack_rows = operators._pack_rows
    unpack = operators._unpack

    def recording_blocked(self, plan, chain):
        relation = blocked(self, plan, chain)
        if plan.residual:
            engaged["left_tail"] += any(step.outer for step in plan.steps)
            fallback["plan"] = plan if relation is None else None
        return relation

    def recording_blocked_distinct(keys, n_rows, blocks):
        distinct_columns, kept = blocked_distinct(keys, n_rows, blocks)
        engaged["kept_all"] += kept == n_rows
        engaged["kept_none"] += n_rows > 0 and kept == 0
        if kept:
            engaged["encoded"] += all(key.column.codes is not None
                                      for key in keys)
            engaged["plain"] += any(key.column.codes is None
                                    for key in keys)
        return distinct_columns, kept

    def recording_distinct(self, relation):
        if fallback["plan"] is not None and relation.n_rows:
            columns = [relation.column(name) for name in relation.names]
            engaged["nulls"] += any(col.mask is not None for col in columns)
            engaged["text"] += any(col.sql_type == "text" for col in columns)
        fallback["plan"] = None
        return distinct(self, relation)

    def recording_pack_rows(keys, columns, rows, *args):
        if rows is not None:
            batch.add("mask" if rows.dtype == np.bool_ else "positions")
        return pack_rows(keys, columns, rows, *args)

    def recording_unpack(keys, words):
        narrow = sum(key.width for key in keys) <= operators.NARROW_WORD_BITS
        batch.add("narrow" if narrow else "wide")
        return unpack(keys, words)

    monkeypatch.setattr(executor_module.Executor, "_blocked_distinct",
                        recording_blocked)
    monkeypatch.setattr(executor_module, "packed_distinct",
                        recording_blocked_distinct)
    monkeypatch.setattr(executor_module.Executor, "_distinct",
                        recording_distinct)
    monkeypatch.setattr(operators, "_pack_rows", recording_pack_rows)
    monkeypatch.setattr(operators, "_unpack", recording_unpack)
    rand = random.Random(FUZZ_SEED)
    # Drawn from a stream of its own, so the generated statements stay
    # those the seed gives without them.
    plant_rand = random.Random(FUZZ_SEED + 1)
    executed = 0
    while executed < FUZZ_ROUNDS:
        db = planned_db()
        oracle = SqliteOracle()
        for statement in table_statements(rand) + text_table_statements(rand):
            oracle.execute(statement)
            db.execute(statement)
        batch.clear()
        sqls = planted_distincts(plant_rand, oracle)
        n_generated = min(BATCH, FUZZ_ROUNDS - executed)
        sqls += [_filtered_distinct(rand) for _ in range(n_generated)]
        planned = {}
        for sql in sqls:
            planned[sql] = db.execute(sql).relation
            warm = db.execute(sql).relation
            assert_identical(sql, "warm", warm, planned[sql])
            assert sorted_rows(planned[sql].rows()) == \
                sorted_rows(oracle.execute(sql)), sql
        # The plants chose their selections for one block per chain: met
        # before any statement runs in small blocks.
        assert batch == {"mask", "positions", "narrow", "wide"}, batch
        with monkeypatch.context() as small:
            small.setattr(executor_module, "BLOCK_ROWS",
                          BLOCK_ROWS_UNDER_FUZZ)
            for sql in sqls:
                assert_identical(sql, "small blocks",
                                 db.execute(sql).relation, planned[sql])
        executed += n_generated
        db.close()
        oracle.close()
    assert all(engaged.values()), engaged


def test_fuzz_generator_is_deterministic():
    """Same seed, same statements — CI reruns must chase the same inputs."""
    first = random.Random(1234)
    second = random.Random(1234)
    for _ in range(25):
        assert generate_query(first) == generate_query(second)
