"""Tests for the compiled physical-plan layer.

Covers the tentpole behaviours of the physical plan cache:

* templates cache a compiled plan (hit/miss/invalidation counters),
* validity across schema changes and the per-round rename/drop churn that
  Randomised Contraction performs (``reps{N}``/``tmp``/``graph`` cycling),
* a fused join->DISTINCT running as a loop over blocks of its join
  chain's rows, each block packing the rows its WHERE keeps, with the
  rows, motion and stored tables of the materialised filter-then-DISTINCT,
* pipeline fusion (column pruning, fused join->DISTINCT, join chains)
  and GROUP BY over joins producing the rows stdlib sqlite produces — the
  databases below are teed (``tests/sqlite_oracle.py``): every statement
  they run also runs on sqlite and the two results must be equal as
  sorted row lists,
* the GROUP BY sort skip over pre-sorted stored columns,
* plan-template normalization edge cases — negative literals, string
  literals containing digits, digit-suffix collisions across table names —
  none of which may ever patch a wrong parameter.
"""

import sqlite3

import numpy as np
import pytest

from repro.sqlengine import Database
from repro.sqlengine.errors import PlanError
from repro.sqlengine.plancache import normalize_statement

from .distinct_reference import record_branches
from .sqlite_oracle import tee


# ---------------------------------------------------------------------------
# physical plan cache behaviour
# ---------------------------------------------------------------------------


def test_physical_plan_hits_across_table_suffixes():
    db = Database(n_segments=4)
    db.execute("create table g (v1 int64, v2 int64)")
    db.execute("insert into g values (1,2),(2,3),(3,1)")
    db.execute("create table reps1 as select v1 v, min(v2) rep from g "
               "group by v1 distributed by (v)")
    db.execute("create table reps2 as select v1 v, min(v2) rep from g "
               "group by v1 distributed by (v)")
    before = db.stats.snapshot()
    rows = []
    for i in (1, 2, 1, 2, 1):
        rows.append(sorted(db.execute(
            f"select g.v1, r.rep from g, reps{i} as r where g.v1 = r.v"
        ).rows()))
    delta = db.stats.snapshot().delta(before)
    assert rows[0] == rows[2] == rows[4]
    # One compile for the template, hits for every later execution.
    assert delta.physical_plan_misses == 1
    assert delta.physical_plan_hits == 4
    assert delta.physical_plan_invalidations == 0


def test_physical_plan_counts_only_planned_statements(db):
    db.execute("create table t (v int64)")  # DDL: no physical plan
    db.execute("insert into t values (1), (2)")  # DML: no physical plan
    assert db.stats.physical_plan_hits + db.stats.physical_plan_misses == 0
    db.execute("select v from t")
    assert db.stats.physical_plan_misses == 1


def test_physical_plan_invalidated_by_schema_change():
    db = Database(n_segments=4)
    db.execute("create table s (k int64, w int64)")
    db.execute("insert into s values (1, 10), (2, 20)")
    query = "select s.w from s where s.k = 1"
    assert db.execute(query).scalar() == 10
    assert db.execute(query).scalar() == 10
    assert db.stats.physical_plan_hits == 1
    # Same name, different schema: the cached plan must not survive.
    db.execute("drop table s")
    db.execute("create table s (k int64, w int64, extra int64)")
    db.execute("insert into s values (1, 99, 0)")
    assert db.execute(query).scalar() == 99
    assert db.stats.physical_plan_invalidations == 1


def test_physical_plan_invalidated_by_distribution_change():
    db = Database(n_segments=4)
    db.execute("create table a (v int64)")
    db.execute("insert into a values (1), (2)")
    db.execute("create table b1 as select v from a distributed by (v)")
    q = "select a.v from a, b1 where a.v = b1.v"
    db.execute(q)
    db.execute(q)
    assert db.stats.physical_plan_hits == 1
    db.execute("drop table b1")
    db.execute("create table b1 as select v from a")  # no distribution now
    rows = sorted(db.execute(q).rows())
    assert rows == [(1,), (2,)]
    assert db.stats.physical_plan_invalidations == 1


def test_column_digit_suffixes_invalidate_stale_plans():
    """v1 vs v2 are template *parameters*: two statements sharing a
    template but joining on different columns must never reuse each
    other's compiled key/gather strings."""
    db = Database()
    db.execute("create table t (v1 int64, v2 int64)")
    db.execute("insert into t values (100, 200)")
    db.execute("create table s (w int64, tag int64)")
    db.execute("insert into s values (100, 7), (200, 8)")
    first = db.execute("select a.v1, b.tag from t a, s b where a.v1 = b.w")
    second = db.execute("select a.v2, b.tag from t a, s b where a.v2 = b.w")
    assert first.rows() == [(100, 7)]
    assert second.rows() == [(200, 8)]
    assert db.stats.physical_plan_invalidations >= 1
    # Fused DISTINCT variant of the same trap.
    assert db.execute("select distinct a.v1 from t a, s b "
                      "where a.v1 = b.w").rows() == [(100,)]
    assert db.execute("select distinct a.v2 from t a, s b "
                      "where a.v2 = b.w").rows() == [(200,)]


def test_alias_digit_suffixes_invalidate_stale_plans(db):
    db.execute("create table t (v1 int64, v2 int64)")
    db.execute("insert into t values (100, 200), (100, 300)")
    first = db.execute("select distinct a.v1 as c1, a.v2 from t a, t b "
                       "where a.v1 = b.v1")
    assert first.relation.display_names == ["c1", "v2"]
    second = db.execute("select distinct a.v1 as c2, a.v2 from t a, t b "
                        "where a.v1 = b.v1")
    assert second.relation.display_names == ["c2", "v2"]


def test_database_close_keeps_cached_plans():
    """``close()`` releases nothing: a statement after it re-runs its
    template's cached physical plan."""
    with Database(n_segments=4) as db:
        db.execute("create table t (v int64)")
        db.execute("insert into t values (1), (2), (3)")
        query = "select t.v from t, t as u where t.v = u.v"
        rows = db.execute(query).rows()
    hits = db.stats.physical_plan_hits
    assert db.execute(query).rows() == rows
    assert db.stats.physical_plan_hits == hits + 1
    assert db.execute("select count(*) from t").scalar() == 3


# ---------------------------------------------------------------------------
# rename/drop churn (the Randomised Contraction round pattern)
# ---------------------------------------------------------------------------


def test_rename_churn_keeps_plans_and_indexes_correct(db):
    """Emulate the per-round reps{N}/tmp/graph cycling of the algorithm."""
    rng = np.random.default_rng(7)
    n = 500
    v1 = rng.integers(0, 50, n)
    v2 = rng.integers(0, 50, n)
    db.load_table("ccgraph", {"v1": v1, "v2": v2}, distributed_by="v1")
    for round_no in range(1, 6):
        reps = f"ccreps{round_no}"
        db.execute(
            f"create table {reps} as select v1 v, min(v2) rep from ccgraph "
            f"group by v1 distributed by (v)"
        )
        db.execute(
            f"create table ccgraph2 as select r1.rep as v1, v2 "
            f"from ccgraph, {reps} as r1 where ccgraph.v1 = r1.v "
            f"distributed by (v2)"
        )
        db.execute("drop table ccgraph")
        db.execute(
            f"create table ccgraph3 as select distinct v1, r2.rep as v2 "
            f"from ccgraph2, {reps} as r2 where ccgraph2.v2 = r2.v "
            f"and v1 != r2.rep distributed by (v1)"
        )
        db.execute("drop table ccgraph2")
        db.execute("alter table ccgraph3 rename to ccgraph")
        # Independent check of the round's result against numpy.
        table = db.table("ccgraph")
        got = sorted(zip(table.column("v1").values.tolist(),
                         table.column("v2").values.tolist()))
        rep_of = {}
        for v in np.unique(v1):
            rep_of[int(v)] = int(v2[v1 == v].min())
        relabeled = [(rep_of[int(a)], rep_of[int(b)])
                     for a, b in zip(v1, v2) if int(b) in rep_of]
        expected = sorted(set((a, b) for a, b in relabeled if a != b))
        assert got == expected
        v1 = np.array([a for a, _ in got], dtype=np.int64)
        v2 = np.array([b for _, b in got], dtype=np.int64)
        if v1.size == 0:
            break
    stats = db.stats
    # The round templates hit their cached plans from round 2 on, and the
    # rename/drop churn never invalidates them (schemas are stable).
    assert stats.physical_plan_hits > 0
    assert stats.physical_plan_invalidations == 0


def test_rename_does_not_serve_stale_data(db):
    db.execute("create table t (v int64, w int64)")
    db.execute("insert into t values (1, 10), (2, 20)")
    db.execute("create table probe (v int64)")
    db.execute("insert into probe values (1), (2)")
    q = "select probe.v, t.w from probe, t where probe.v = t.v"
    assert sorted(db.execute(q).rows()) == [(1, 10), (2, 20)]  # warms caches
    db.execute("alter table t rename to old_t")
    db.execute("create table t (v int64, w int64)")
    db.execute("insert into t values (1, 77), (2, 88)")
    # Same template, same schema fingerprint, new table object: the plan is
    # reusable but the data (and any index) must come from the new table.
    assert sorted(db.execute(q).rows()) == [(1, 77), (2, 88)]


# ---------------------------------------------------------------------------
# fusion: the rows sqlite produces
# ---------------------------------------------------------------------------


def _two_table_db() -> Database:
    """Teed: every ``execute`` is also compared with sqlite's result."""
    db = tee(Database(n_segments=4))
    rng = np.random.default_rng(42)
    n = 4000
    db.load_table("graph2", {
        "v1": rng.integers(0, 300, n),
        "v2": rng.integers(0, 300, n),
    }, distributed_by="v2")
    db.load_table("reps", {
        "v": np.arange(300, dtype=np.int64),
        "rep": rng.integers(0, 1 << 60, 300),
    }, distributed_by="v")
    return db


FUSABLE_QUERIES = [
    "select distinct v1, r2.rep as v2 from graph2, reps as r2 "
    "where graph2.v2 = r2.v and v1 != r2.rep",
    "select distinct r2.rep from graph2, reps as r2 where graph2.v2 = r2.v",
    "select distinct v1, v1 from graph2, reps as r2 where graph2.v2 = r2.v",
]


@pytest.mark.parametrize("query", FUSABLE_QUERIES)
def test_fused_distinct_matches_materialising_pipeline(query):
    db = _two_table_db()
    db.execute(query)
    assert db.stats.fused_pipelines > 0


def _record_blocks(monkeypatch) -> list:
    """Spy on the executor's fused join→DISTINCT block loop
    (``operators.packed_distinct`` as the executor calls it): per loop,
    ``(statement, blocks, chain rows, kept rows, key columns)`` — the
    statement being the label's last part and ``blocks`` each block's
    ``(rows, length)``: the selection it packed (``None``: every row of
    the block) and its row count."""
    from repro.sqlengine import executor as executor_module

    calls: list = []
    current = {"statement": ""}
    execute = Database.execute
    packed_distinct = executor_module.packed_distinct

    def labelled_execute(db, sql, label=""):
        current["statement"] = label.rsplit(":", 1)[-1]
        return execute(db, sql, label)

    def recording(keys, n_rows, blocks):
        seen = []

        def watched():
            for columns, rows in blocks:
                seen.append((rows, len(columns[0])))
                yield columns, rows

        distinct, kept = packed_distinct(keys, n_rows, watched())
        calls.append((current["statement"], seen, n_rows, kept,
                      [key.column for key in keys]))
        return distinct, kept

    monkeypatch.setattr(Database, "execute", labelled_execute)
    monkeypatch.setattr(executor_module, "packed_distinct", recording)
    return calls


def _materialise_fused_distincts(monkeypatch) -> None:
    """Run no block loop: every fused join→DISTINCT materialises its
    frame, filters it and de-duplicates the filtered relation — the
    reference the block loop must match."""
    from repro.sqlengine import executor as executor_module

    monkeypatch.setattr(executor_module.Executor, "_blocked_distinct",
                        lambda self, plan, chain: None)


def _assert_selection(rows, length: int) -> str:
    """``rows`` is a selection a block may pack: a mask over its
    ``length`` rows keeping at least ``DISTINCT_MASK_MIN_KEPT`` of them
    but not all, or ascending positions keeping fewer; its form."""
    from repro.sqlengine.operators import DISTINCT_MASK_MIN_KEPT

    if rows.dtype == np.bool_:
        assert rows.shape[0] == length
        assert DISTINCT_MASK_MIN_KEPT * length <= rows.sum() < length
        return "mask"
    assert rows.dtype.kind == "i"
    assert bool((rows[1:] > rows[:-1]).all())
    assert rows.shape[0] < DISTINCT_MASK_MIN_KEPT * length
    return "positions"


def _kept(blocks) -> int:
    """The rows a block loop's selections keep."""
    return sum(length if rows is None
               else int(rows.sum()) if rows.dtype == np.bool_
               else rows.shape[0] for rows, length in blocks)


def _assert_blocks_cover(blocks, n_rows: int) -> None:
    """The blocks cut the chain's rows in order: full blocks of
    ``BLOCK_ROWS`` but the last."""
    from repro.sqlengine.executor import BLOCK_ROWS

    lengths = [length for _, length in blocks]
    assert sum(lengths) == n_rows
    assert all(length == BLOCK_ROWS for length in lengths[:-1])
    assert all(0 < length <= BLOCK_ROWS for length in lengths[-1:])


def test_contract_and_relink_select_their_kept_rows_block_by_block(
        monkeypatch):
    """The contract statement of both RC variants and Cracker's relink
    are fused join→DISTINCTs whose WHERE drops rows: they run as a block
    loop over their join chain, and each block packs the rows it keeps —
    the mask where the WHERE keeps most of them, ascending positions
    where it keeps fewer; between them the runs select both ways."""
    from repro.core import Cracker, RandomisedContraction
    from repro.graphs import gnm_random_graph
    from repro.graphs.io import load_edges_into

    calls = _record_blocks(monkeypatch)
    edges = gnm_random_graph(400, 700, np.random.default_rng(37))
    forms = set()
    for algorithm, statement in (
            (RandomisedContraction(), "contract"),
            (RandomisedContraction(variant="deterministic-space"),
             "contract"),
            (Cracker(), "relink")):
        calls.clear()
        with Database() as db:
            load_edges_into(db, "edges", edges)
            algorithm.run(db, "edges", seed=5)
        loops = [call for call in calls if call[0] == statement]
        assert loops, (algorithm.name, statement)
        selected = [(rows, length) for _, blocks, _, _, _ in loops
                    for rows, length in blocks if rows is not None]
        assert any(rows.any() for rows, _ in selected), \
            (algorithm.name, statement)
        for _, blocks, n_rows, kept, _ in loops:
            _assert_blocks_cover(blocks, n_rows)
            assert kept == _kept(blocks)
        forms.update(_assert_selection(rows, length)
                     for rows, length in selected)
    assert forms == {"mask", "positions"}


@pytest.mark.parametrize("where, form", [
    ("v1 + r2.v >= 0", None),
    ("v1 < r2.v", "positions"),
    ("v1 + r2.v > 60", "mask"),
])
def test_fused_where_selects_each_block_by_none_a_mask_or_positions(
        monkeypatch, where, form):
    """A fused DISTINCT's residual WHERE (one over both sides of the join:
    a one-table predicate filters its scan), cut into four blocks, keeps
    every row of each (``None``), most of each (the block's mask) or fewer
    (their positions, ascending) — exactly the kept rows, block by block,
    and the rows packed are the statement's kept rows."""
    from repro.sqlengine import executor as executor_module

    calls = _record_blocks(monkeypatch)
    db = _two_table_db()
    n_rows = db.table("graph2").n_rows
    monkeypatch.setattr(executor_module, "BLOCK_ROWS", n_rows // 4)
    kept = db.execute(f"select count(*) from graph2, reps as r2 "
                      f"where graph2.v2 = r2.v and {where}").scalar()
    db.execute(f"select distinct v1, r2.rep as v2 from graph2, reps as r2 "
               f"where graph2.v2 = r2.v and {where}")
    (_, blocks, chain_rows, packed, _), = calls
    assert chain_rows == n_rows and len(blocks) == 4
    _assert_blocks_cover(blocks, n_rows)
    assert packed == _kept(blocks) == kept
    if form is None:
        assert all(rows is None for rows, _ in blocks)
    else:
        assert {_assert_selection(rows, length)
                for rows, length in blocks} == {form}


#: Per-seed data motion of an RC run on G(400, 700) (graph seed 37), as
#: filter-then-DISTINCT charges it.
RC_MOTION_BYTES = {("fast", 5): 283936, ("fast", 6): 296128,
                   ("deterministic-space", 5): 546080,
                   ("deterministic-space", 6): 532560}


@pytest.mark.parametrize("variant", ["fast", "deterministic-space"])
def test_filtered_distinct_charges_filter_then_distinct_motion(
        monkeypatch, variant):
    """The block loop charges the motion of the filtered relation: every
    statement of an RC run moves the bytes it moves when the frame is
    materialised and filtered first, the stored tables are the same, and
    the run's total is the pinned per-seed value."""
    from repro.core import RandomisedContraction
    from repro.graphs import gnm_random_graph
    from repro.graphs.io import load_edges_into

    edges = gnm_random_graph(400, 700, np.random.default_rng(37))
    calls = _record_blocks(monkeypatch)

    def run(seed):
        with Database() as db:
            load_edges_into(db, "edges", edges)
            result = RandomisedContraction(variant=variant).run(
                db, "edges", seed=seed)
            moved = [(record.label, record.motion_bytes)
                     for record in db.stats.log]
            stored = db.table("ccresult")
            labels = [stored.column(name).values.copy()
                      for name in stored.column_names]
        return result.stats.motion_bytes, moved, labels

    for seed in (5, 6):
        calls.clear()
        total, moved, labels = run(seed)
        assert total == RC_MOTION_BYTES[variant, seed]
        assert calls
        with monkeypatch.context() as patched:
            _materialise_fused_distincts(patched)
            calls.clear()
            filtered_total, filtered_moved, filtered_labels = run(seed)
            assert not calls
        assert (total, moved) == (filtered_total, filtered_moved)
        assert all(np.array_equal(a, b)
                   for a, b in zip(labels, filtered_labels))


def _block_tables(db, n: int, block: int) -> None:
    """``e``: ``n`` rows numbered ``i``, each joining one of 50 ``d``
    rows on ``k``; ``a`` repeats over 13 values, ``blk`` is the row's
    block number mod 3 and ``par`` its number mod 4.  ``d.rep`` is spread
    over 2^46 and ``d.zero`` is 0, so a predicate adding it reads both
    sides and stays a residual WHERE."""
    i = np.arange(n, dtype=np.int64)
    db.load_table("e", {"i": i, "k": i % 50, "a": i * 7 % 13,
                        "blk": i // block % 3, "par": i % 4})
    v = np.arange(50, dtype=np.int64)
    db.load_table("d", {"v": v, "rep": (v % 17) << 42,
                        "zero": np.zeros(50, dtype=np.int64)})


#: A residual WHERE by what it keeps of each block: block ``b`` keeps all
#: its rows when ``b % 3 == 0``; when ``b % 3 == 1`` three in four (a
#: mask) or one in four (positions); and none when ``b % 3 == 2``.
BLOCK_WHERES = {
    "all-mask-none": "e.blk + d.zero = 0 or (e.blk + d.zero = 1 "
                     "and e.par != 0)",
    "all-positions-none": "e.blk + d.zero = 0 or (e.blk + d.zero = 1 "
                          "and e.par = 0)",
    "every-row": "e.a + d.zero >= 0",
}


def _relation_state(relation) -> list:
    """Everything two executions of one statement must agree on."""
    return [(name, display, col.sql_type, col.to_list(), col.dictionary)
            for name, display, col in zip(
                relation.names, relation.display_names,
                (relation.columns[name] for name in relation.names))]


@pytest.mark.parametrize("where", sorted(BLOCK_WHERES))
@pytest.mark.parametrize("length", ["0", "1", "B-1", "B", "B+1", "3B+7"])
def test_block_loop_matches_the_materialised_path(monkeypatch, length,
                                                  where):
    """Over a join chain of 0, 1, B - 1, B, B + 1 and 3B + 7 rows (B:
    ``BLOCK_ROWS``), and a WHERE keeping all, most, few or none of a
    block's rows, the block loop's DISTINCT is the materialised path's
    — names, types, rows in order, dictionaries — its motion is the
    same, and its rows are sqlite's."""
    from repro.sqlengine.executor import BLOCK_ROWS

    n = {"0": 0, "1": 1, "B-1": BLOCK_ROWS - 1, "B": BLOCK_ROWS,
         "B+1": BLOCK_ROWS + 1, "3B+7": 3 * BLOCK_ROWS + 7}[length]
    calls = _record_blocks(monkeypatch)
    db = tee(Database(n_segments=4))
    _block_tables(db, n, BLOCK_ROWS)
    sql = (f"select distinct e.a, d.rep from e, d where e.k = d.v "
           f"and ({BLOCK_WHERES[where]})")

    def run():
        relation = db.execute(sql).relation
        return _relation_state(relation), db.stats.log[-1].motion_bytes

    blocked = run()
    (_, blocks, chain_rows, kept, _), = calls
    assert chain_rows == n and len(blocks) == -(-n // BLOCK_ROWS)
    assert kept == _kept(blocks)
    if n:
        _assert_blocks_cover(blocks, n)
    if length == "3B+7" and where == "all-mask-none":
        rows = [rows for rows, _ in blocks]
        assert rows[0] is None and rows[3] is None
        assert _assert_selection(rows[1], BLOCK_ROWS) == "mask"
        assert rows[2].shape[0] == 0
    with monkeypatch.context() as patched:
        _materialise_fused_distincts(patched)
        assert run() == blocked
    db.close()


#: Fused DISTINCTs whose keys do not pack, so no block loop runs: the
#: projection over the joined tables ``e`` and ``d`` (and ``dl``, which
#: misses half of ``d``'s keys, or ``en``, whose ``n`` is NULL where
#: ``dl`` misses).
UNPACKED_DISTINCTS = {
    "nulls": "select distinct en.n, d.rep from en, d "
             "where en.k = d.v and (en.n + d.zero >= 0 or en.n is null)",
    "text": "select distinct d.name, e.a from e, d where e.k = d.v "
            "and e.par + d.zero > 0",
    "float": "select distinct d.half, e.a from e, d where e.k = d.v "
             "and e.par + d.zero > 0",
    "wide": "select distinct e.wide, d.wide from e, d where e.k = d.v "
            "and e.par + d.zero > 0",
    "left-joined": "select distinct e.a, dl.rep from e left join dl "
                   "on (e.k = dl.v)",
}


@pytest.mark.parametrize("case", sorted(UNPACKED_DISTINCTS))
def test_fused_distinct_whose_keys_do_not_pack_materialises(monkeypatch,
                                                            case):
    """A NULL-bearing, text, float or wider-than-63-bit key, or a
    LEFT-joined binding with null-extended rows: the fused DISTINCT runs
    no block loop — it materialises, filters and de-duplicates its frame
    — and its rows are sqlite's."""
    calls = _record_blocks(monkeypatch)
    db = tee(Database(n_segments=4))
    n = 400
    i = np.arange(n, dtype=np.int64)
    spread = np.array([-(1 << 62), 1 << 62], dtype=np.int64)
    db.load_table("e", {"i": i, "k": i % 50, "a": i * 7 % 13,
                        "par": i % 4, "wide": spread[i % 2] + i})
    v = np.arange(50, dtype=np.int64)
    db.load_table("d", {"v": v, "rep": (v % 17) << 42,
                        "zero": np.zeros(50, dtype=np.int64),
                        "name": np.array([f"n{x % 7}" for x in v],
                                         dtype=object),
                        "half": v % 9 / 2, "wide": spread[v % 2] - v})
    db.load_table("dl", {"v": v[::2], "rep": v[::2] % 5})
    db.execute("create table en as select e.i as i, e.k as k, dl.rep as n "
               "from e left join dl on (e.k = dl.v)")
    before = db.stats.fused_pipelines
    db.execute(UNPACKED_DISTINCTS[case])
    assert db.stats.fused_pipelines == before + 1
    assert calls == []
    db.close()


def test_computed_distinct_item_never_sees_a_dropped_row():
    """A DISTINCT with a computed item is not fused: its WHERE filters the
    frame before the projection, so ``a % b`` (which raises on a zero
    divisor) and a UDF never see a row the WHERE drops."""
    seen: list = []

    def checked(values):
        assert not (values == 0).any()
        seen.append(values.shape[0])
        return values * 2

    db = Database(n_segments=4)
    db.create_function("checked", checked)
    k, a = np.arange(40) % 7, np.arange(40)
    db.load_table("t", {"k": k, "a": a})
    db.load_table("u", {"k": np.arange(7), "b": np.arange(7) % 3})
    rows = db.execute("select distinct t.a % u.b, checked(u.b) from t, u "
                      "where t.k = u.k and u.b != 0").rows()
    b = k % 3
    kept = b != 0
    assert seen == [int(kept.sum())]
    assert sorted(rows) == sorted(set(zip((a[kept] % b[kept]).tolist(),
                                          (2 * b[kept]).tolist())))
    assert db.stats.fused_pipelines == 0


GROUP_OVER_JOIN_QUERIES = [
    # The table-strategy round's neigh-min shape: join -> GROUP BY on a
    # left-side key, aggregate over a right-side column.
    "select graph2.v1 as v, min(r2.rep) as hmin from graph2, reps as r2 "
    "where graph2.v2 = r2.v group by graph2.v1",
    "select v1, count(*) c, sum(r2.v) s, avg(r2.v) a, max(r2.rep) hi "
    "from graph2, reps as r2 where graph2.v2 = r2.v group by v1",
    # Residual filter between the join and the aggregate.
    "select v1, min(r2.rep) m from graph2, reps as r2 "
    "where graph2.v2 = r2.v and v1 != r2.rep group by v1",
    # Multi-column left-side keys.
    "select v1, v2, count(*) c from graph2, reps as r2 "
    "where graph2.v2 = r2.v group by v1, v2",
    # Key also consumed as an aggregate argument.
    "select v1, sum(v1) s, min(r2.rep) m from graph2, reps as r2 "
    "where graph2.v2 = r2.v group by v1",
    # Expression over key and aggregate in one select item.
    "select v1 v, v1 + min(r2.rep) x from graph2, reps as r2 "
    "where graph2.v2 = r2.v group by v1",
    # Keys produced by the join itself: on the build side, or one on each.
    "select r2.v, count(*) c from graph2, reps as r2 "
    "where graph2.v2 = r2.v group by r2.v",
    "select r2.rep g, count(*) c, min(graph2.v1) m from graph2, reps as r2 "
    "where graph2.v2 = r2.v group by r2.rep",
    "select v1, r2.rep, count(*) c from graph2, reps as r2 "
    "where graph2.v2 = r2.v group by v1, r2.rep",
    # count(distinct) over the joined rows.
    "select v1, count(distinct r2.rep) c from graph2, reps as r2 "
    "where graph2.v2 = r2.v group by v1",
]


@pytest.mark.parametrize("query", GROUP_OVER_JOIN_QUERIES)
def test_group_by_over_join_matches_sqlite(query):
    """A GROUP BY over a join runs over the chain's materialised frame,
    whatever side its keys come from; its groups are sqlite's."""
    _two_table_db().execute(query)


def test_group_by_over_join_rejects_an_ambiguous_bare_name():
    """A bare name both joined tables carry is ambiguous in a grouped
    output whichever of them the GROUP BY keys name, as sqlite rules; its
    qualified forms group as sqlite groups them."""
    db = tee(Database())
    db.execute("create table a (k int64, x int64)")
    db.execute("insert into a values (1, 10), (2, 20), (2, 21), (3, 30)")
    db.execute("create table b (k int64, x int64)")
    db.execute("insert into b values (1, 5), (2, 6), (2, 6), (4, 7)")
    join = "from a join b on a.k = b.k"
    for keys in ("a.x, b.x", "a.x"):
        sql = f"select x + 1 y, count(*) c {join} group by {keys}"
        with pytest.raises(PlanError, match="ambiguous column 'x'"):
            db.execute(sql)
        with pytest.raises(sqlite3.OperationalError,
                           match="ambiguous column name: x"):
            db.oracle.execute(sql)
    compared = db.oracle.compared
    for sql in (f"select a.x + 1 y, count(*) c {join} group by a.x, b.x",
                f"select a.x + 1 y, count(*) c {join} group by a.x",
                f"select a.x, b.x, count(*) c {join} group by a.x, b.x"):
        db.execute(sql)
    assert db.oracle.compared == compared + 3


def test_in_list_items_are_planned_like_any_operand():
    """A column in an IN list is read like any other: a predicate whose
    list names the other side of a join stays above it, and a list item
    is gathered, not pruned."""
    db = _two_table_db()
    db.execute("select graph2.v1, r2.rep from graph2, reps as r2 "
               "where graph2.v2 = r2.v and graph2.v1 in (r2.v, 7)")
    db.execute("select distinct r2.rep from graph2, reps as r2 "
               "where graph2.v2 = r2.v and r2.v in (graph2.v1)")


def test_group_by_over_join_with_nulls_in_aggregate_argument():
    db = tee(Database(n_segments=4))
    db.execute("create table e (v1 int64, v2 int64)")
    db.execute("insert into e values (1, 10), (1, 11), (2, 10), (3, 12)")
    db.execute("create table w (v int64, x int64)")
    db.execute("insert into w values (10, null), (11, 5), (12, null)")
    rows = db.execute("select e.v1, count(x) c, sum(w.x) s, min(w.x) lo "
                      "from e, w where e.v2 = w.v group by e.v1").rows()
    assert sorted(rows) == [(1, 1, 5, 5), (2, 0, None, None),
                            (3, 0, None, None)]


def test_group_by_over_join_empty_sides():
    db = tee(Database(n_segments=4))
    db.execute("create table e (v1 int64, v2 int64)")
    db.execute("create table w (v int64, x int64)")
    q = ("select e.v1, count(*) c, min(w.x) lo from e, w "
         "where e.v2 = w.v group by e.v1")
    # Both sides empty.
    assert db.execute(q).rows() == []
    # Probe side populated, build side empty (and vice versa).
    db.execute("insert into e values (1, 10), (2, 11)")
    assert db.execute(q).rows() == []
    db.execute("truncate table e")
    db.execute("insert into w values (10, 7)")
    assert db.execute(q).rows() == []


def test_group_by_on_stored_key_reads_no_index():
    """A GROUP BY reads its layout off its key column, never off the
    table's index cache: a key scanned straight off a stored table —
    unsorted, then sorted — builds and finds no index, and both give
    sqlite's groups."""
    db = tee(Database(n_segments=4))
    rng = np.random.default_rng(9)
    n = 3000
    v1 = rng.integers(0, 2 ** 61, 300)[rng.integers(0, 300, n)]
    db.load_table("e", {"v1": v1, "v2": rng.integers(0, 100, n)})
    db.load_table("s", {"v1": np.sort(v1), "v2": rng.integers(0, 100, n)})
    for table in ("e", "s", "e", "s"):
        db.execute(f"select {table}.v1, count(*) c, sum({table}.v2) total "
                   f"from {table} group by {table}.v1")
    assert db.stats.index_cache_misses == db.stats.index_cache_hits == 0
    # Neither is cached: the first ask builds each.
    assert db.table("e").index_for("v1")[1] is True
    assert db.table("s").index_for("v1")[1] is True
    # The stored-sorted key was reduced where it lies, both times.
    assert db.stats.group_sorts_skipped == 2


def test_fusion_preserves_create_table_as(db):
    rng = np.random.default_rng(3)
    db.load_table("e", {"a": rng.integers(0, 40, 900),
                        "b": rng.integers(0, 40, 900)})
    db.load_table("m", {"v": np.arange(40, dtype=np.int64),
                        "rep": rng.integers(0, 40, 40)})
    db.execute("create table out as select distinct e.a, m.rep from e, m "
               "where e.b = m.v and e.a != m.rep distributed by (a)")
    assert db.stats.fused_pipelines == 1
    table = db.table("out")
    assert table.column_names == ["a", "rep"]
    assert table.distribution_column == "a"
    pairs = set(zip(table.column("a").values.tolist(),
                    table.column("rep").values.tolist()))
    assert len(pairs) == table.n_rows  # DISTINCT held


def test_column_pruning_does_not_change_results():
    """Multi-join query with unused columns, pruned from every gather."""
    db = tee(Database())
    rng = np.random.default_rng(11)
    db.load_table("a", {"k": rng.integers(0, 60, 800),
                        "junk_a": rng.integers(0, 9, 800)})
    db.load_table("b", {"k": np.arange(60, dtype=np.int64),
                        "m": rng.integers(0, 30, 60),
                        "junk_b": rng.integers(0, 9, 60)})
    db.load_table("c", {"m": np.arange(30, dtype=np.int64),
                        "label": rng.integers(0, 5, 30)})
    db.execute("select c.label, count(*) cnt from a, b, c "
               "where a.k = b.k and b.m = c.m group by c.label")


def test_group_by_sorted_column_skips_sort(db):
    values = np.repeat(np.arange(1000, dtype=np.int64), 3)  # sorted on disk
    db.load_table("s", {"v": values})
    rows = db.execute("select v, count(*) c from s group by v").rows()
    assert rows[:2] == [(0, 3), (1, 3)]
    assert db.stats.group_sorts_skipped == 1
    # Unsorted input must not take the shortcut.
    db.load_table("u", {"v": values[::-1].copy()})
    db.execute("select v, count(*) c from u group by v")
    assert db.stats.group_sorts_skipped == 1


# ---------------------------------------------------------------------------
# normalization edge cases (never patch a wrong parameter)
# ---------------------------------------------------------------------------


def test_negative_integer_literals_patch_correctly(db):
    db.execute("create table t (v int64)")
    db.execute("insert into t values (1)")
    assert db.execute("select -5 c from t").scalar() == -5
    assert db.execute("select -7 c from t").scalar() == -7  # template hit
    assert db.execute("select 0 - 3 c from t").scalar() == -3


def test_string_literals_with_digits_are_not_parameterised(db):
    db.execute("create table s (name text)")
    db.execute("insert into s values ('agent 47')")
    assert db.execute("select name from s where name = 'agent 47'").rows() \
        == [("agent 47",)]
    # Two statements differing only inside string literals are distinct
    # templates; digits inside strings never become parameters.
    assert db.execute("select 'x1' v from s").scalar() == "x1"
    assert db.execute("select 'x2' v from s").scalar() == "x2"
    template, params = normalize_statement("select 'x1' v from s where 1=1")
    assert "'x1'" in template and params == ["1", "1"]


def test_digit_suffix_collisions_resolve_to_the_right_table(db):
    db.execute("create table t1 (v int64)")
    db.execute("insert into t1 values (100)")
    db.execute("create table t2 (v int64)")
    db.execute("insert into t2 values (200)")
    db.execute("create table t12 (v int64)")
    db.execute("insert into t12 values (300)")
    # t1, t2, t12 all normalize to the same template t$0; each execution
    # must patch back its own suffix, never a neighbour's.
    assert db.execute("select v from t1").scalar() == 100
    assert db.execute("select v from t2").scalar() == 200
    assert db.execute("select v from t12").scalar() == 300
    assert db.execute("select v from t1").scalar() == 100
    # Mid-identifier digits stay literal and never collide with suffixes.
    db.execute("create table x2y (v int64)")
    db.execute("insert into x2y values (9)")
    assert db.execute("select v from x2y").scalar() == 9


def test_mixed_literal_and_suffix_parameters(db):
    db.execute("create table r7 (v int64)")
    db.execute("insert into r7 values (7)")
    db.execute("create table r8 (v int64)")
    db.execute("insert into r8 values (8)")
    assert db.execute("select v + 10 s from r7").scalar() == 17
    assert db.execute("select v + 20 s from r8").scalar() == 28
    assert db.execute("select v + 30 s from r7").scalar() == 37


# ---------------------------------------------------------------------------
# end-to-end: Randomised Contraction over the physical plan layer
# ---------------------------------------------------------------------------


def test_rc_physical_plan_hit_rate_and_identical_labels():
    """Plan hit rates over two RC runs whose every table is compared with
    sqlite's (the database is teed)."""
    from repro.core import RandomisedContraction
    from repro.graphs import gnm_random_graph
    from repro.graphs.io import load_edges_into

    db = tee(Database(n_segments=4))
    load_edges_into(db, "edges",
                    gnm_random_graph(600, 1100, np.random.default_rng(23)))
    RandomisedContraction().run(db, "edges", seed=5)
    cold = db.stats.snapshot()
    assert cold.physical_plan_hits > 0
    assert cold.fused_pipelines > 0
    planned = cold.physical_plan_hits + cold.physical_plan_misses
    assert cold.physical_plan_hits / planned > 0.5  # cold-start run
    # Steady state: on a database whose templates are warm, every
    # round-loop statement of a second run re-executes its cached plan;
    # only validity checks and parameter patches remain.
    load_edges_into(db, "edges_again",
                    gnm_random_graph(900, 1700, np.random.default_rng(3)))
    RandomisedContraction().run(db, "edges_again", seed=99)
    warm = db.stats.snapshot().delta(cold)
    planned = warm.physical_plan_hits + warm.physical_plan_misses
    assert warm.physical_plan_hits / planned >= 0.95
    assert db.stats.physical_plan_invalidations == 0


def test_rc_random_reals_round_loop_fuses_join_group_by():
    """The table-strategy round's neigh-min statement is a join->GROUP BY
    over a join chain; every table the loop writes equals sqlite's."""
    from repro.core import RandomisedContraction
    from repro.graphs import gnm_random_graph
    from repro.graphs.io import load_edges_into

    edges = gnm_random_graph(400, 700, np.random.default_rng(31))

    db = tee(Database(n_segments=4))
    load_edges_into(db, "edges", edges)
    RandomisedContraction(method="random-reals",
                          variant="deterministic-space").run(
        db, "edges", seed=5)
    assert db.stats.join_chain_fusions > 0


def test_rc_fast_variant_round_loop_distinct_runs_on_codes(monkeypatch):
    """The fast variant's contract DISTINCT pairs two gathers of
    ``reps.rep``: both arrive dictionary-encoded over one dictionary, so
    every round's DISTINCT is a block loop packing codes — in key order,
    which the next round's ``reps`` GROUP BY finds already sorted — and
    never ranks or groups a plain 64-bit value."""
    from repro.core import RandomisedContraction
    from repro.graphs import gnm_random_graph
    from repro.graphs.io import load_edges_into

    edges = gnm_random_graph(400, 700, np.random.default_rng(33))
    calls = _record_blocks(monkeypatch)
    db = Database(n_segments=4)
    load_edges_into(db, "edges", edges)
    taken = record_branches(monkeypatch)
    result = RandomisedContraction().run(db, "edges", seed=5)
    assert taken == ["packed-codes"] * result.rounds
    assert [call[0] for call in calls] == ["contract"] * result.rounds
    assert all(col.codes is not None
               for *_, columns in calls for col in columns)
    # Every round but the first groups a DISTINCT's output.
    assert db.stats.group_sorts_skipped >= result.rounds - 1


def _route_on(left_keys, right_keys, note: list) -> str:
    """A join's route note and the key form it ran on: ``"offset on
    codes"`` for two key columns over one dictionary, else ``... on
    plain``."""
    dictionary = left_keys[0].dictionary
    shared = dictionary is not None and dictionary is right_keys[0].dictionary
    return f"{note[-1]} on {'codes' if shared else 'plain'}"


def _run_deterministic_space(monkeypatch, edges):
    """One deterministic-space RC run; returns the result, each
    composition's (join route on its key form, null-extended rows) in
    round order, whether
    the stored labels are encoded, and the labels' edge check."""
    from repro.core import RandomisedContraction
    from repro.graphs.io import load_edges_into
    from repro.sqlengine import executor as executor_module

    compositions = []
    dispatch_join = executor_module.Executor._dispatch_join

    def recording_dispatch(self, left_outer, *args):
        l_idx, r_idx = dispatch_join(self, left_outer, *args)
        if left_outer:  # the loop's only LEFT JOIN is the composition
            compositions.append((_route_on(args[0], args[1], args[-1]),
                                 int((r_idx < 0).sum())))
        return l_idx, r_idx

    monkeypatch.setattr(executor_module.Executor, "_dispatch_join",
                        recording_dispatch)
    with Database() as db:
        load_edges_into(db, "edges", edges)
        result = RandomisedContraction(variant="deterministic-space").run(
            db, "edges", seed=5)
        encoded = db.table("ccresult").column("rep").codes is not None
        vertices, labels = result.labels(db)
    label_of = dict(zip(vertices.tolist(), labels.tolist()))
    consistent = all(label_of[s] == label_of[d]
                     for s, d in zip(edges.src.tolist(), edges.dst.tolist()))
    return result, compositions, encoded, consistent


def test_rc_deterministic_space_composition_joins_codes(monkeypatch):
    """The composition ``l LEFT JOIN reps ON l.rep = r.v`` matches every
    row on a path (one component), so it gathers ``reps.rep`` as codes and
    ``coalesce`` stores them: from round 2 on each composition joins two
    columns over one dictionary — every entry of which is a ``reps.v``
    row, in order, so the codes are the build rows (``offset``) — and
    the final labels are encoded."""
    from repro.graphs import path_graph

    result, compositions, encoded, consistent = _run_deterministic_space(
        monkeypatch, path_graph(1500))
    assert result.rounds > 2
    assert compositions == [("offset on codes", 0)] * (result.rounds - 1)
    assert encoded and consistent


def _round_join_routes(monkeypatch, edges,
                       variant: str = "deterministic-space") -> list:
    """One RC run (deterministic space unless ``variant`` says); returns
    ``(round, statement, route note on key form)`` per join (see
    :func:`_route_on`), the statement being the label's last part
    (``relabel-src``, ``contract``, ``compose``)."""
    from repro.core import RandomisedContraction
    from repro.graphs.io import load_edges_into
    from repro.sqlengine import executor as executor_module

    routes: list = []
    current = {"round": 0, "statement": ""}
    execute = Database.execute
    dispatch_join = executor_module.Executor._dispatch_join

    def labelled_execute(db, sql, label=""):
        current["statement"] = label.rsplit(":", 1)[-1]
        current["round"] += current["statement"] == "reps"
        return execute(db, sql, label)

    def recording_dispatch(self, *args):
        pair = dispatch_join(self, *args)
        routes.append((current["round"], current["statement"],
                       _route_on(args[1], args[2], args[-1])))
        return pair

    monkeypatch.setattr(Database, "execute", labelled_execute)
    monkeypatch.setattr(executor_module.Executor, "_dispatch_join",
                        recording_dispatch)
    with Database() as db:
        load_edges_into(db, "edges", edges)
        RandomisedContraction(variant=variant).run(db, "edges", seed=5)
    return routes


def test_rc_deterministic_space_joins_read_rows_off_the_keys_on_a_path(
        monkeypatch):
    """On one component every round's ``reps.v`` holds every vertex left,
    in order, as codes that fill their dictionary — round 1's the doubled
    edge table's vertex dictionary, later rounds' the representatives' —
    so every contract and composition join reads its rows off the probe
    codes (``offset``) and none builds a table."""
    from repro.graphs import path_graph

    routes = _round_join_routes(monkeypatch, path_graph(1500))
    assert {statement for _, statement, _ in routes} == \
        {"contract", "compose"}
    assert {round_no for round_no, _, _ in routes} > {1, 2}
    for _, _, note in routes:
        assert note == "offset on codes"


def test_rc_deterministic_space_contract_keeps_the_table_for_holes(
        monkeypatch):
    """On G(3000, 2000) components finish in round 1: their
    representatives stay in round 2's dictionary but leave its ``reps.v``,
    whose codes then have holes, so the round-2 contract probes a table
    (``dense``).  Round 1 has none: isolated ids never enter the
    doubled edge table's vertex dictionary, which its ``reps.v`` fills."""
    from repro.graphs import gnm_random_graph

    routes = _round_join_routes(
        monkeypatch, gnm_random_graph(3000, 2000, np.random.default_rng(7)))
    contract = {}
    for round_no, statement, note in routes:
        if statement == "contract":
            contract.setdefault(round_no, []).append(note)
    assert contract[1] == ["offset on codes", "offset on codes"]
    assert contract[2] == ["dense on codes", "dense on codes"]
    assert all(set(notes) <= {"dense on codes", "offset on codes"}
               for round_no, notes in contract.items() if round_no >= 2)


def test_rc_round_one_reads_rows_off_the_vertex_codes(monkeypatch):
    """The setup stores the doubled edge table over one vertex dictionary
    that holds no isolated id, and round 1's ``reps.v`` — one group per
    vertex of the table — fills it in order: both variants' round-1 joins
    (the fast variant's relabelling and contraction, the deterministic
    space contraction) read their rows off the probe codes, on G(3000,
    2000) with its isolated ids as on a path."""
    from repro.graphs import gnm_random_graph, path_graph

    for variant, statements in (("fast", {"relabel-src", "contract"}),
                                ("deterministic-space", {"contract"})):
        for edges in (gnm_random_graph(3000, 2000,
                                       np.random.default_rng(7)),
                      path_graph(500)):
            round_one = [(statement, note) for round_no, statement, note
                         in _round_join_routes(monkeypatch, edges, variant)
                         if round_no == 1]
            assert {statement for statement, _ in round_one} == statements
            assert {note for _, note in round_one} == {"offset on codes"}


def test_rc_deterministic_space_composition_probes_plain_keys_once_a_component_finishes(
        monkeypatch):
    """The rule's limit: a component that has finished leaves the edge
    table, so from then on its label rows are null-extended in every
    composition.  A gather with a null-extended row stays plain, so the
    labels are stored plain and every later composition probes plain keys.
    Here a lone edge finishes in round 1 beside a path."""
    from repro.graphs import EdgeList, path_graph

    path = path_graph(1500)
    edges = EdgeList(np.append(path.src, 10_000), np.append(path.dst, 10_001))
    result, compositions, encoded, consistent = _run_deterministic_space(
        monkeypatch, edges)
    assert result.rounds > 3
    # Round 2 still probes round 1's encoded labels; nothing after does.
    forms = [route.split(" on ")[1] for route, _ in compositions]
    assert forms[0] == "codes"
    assert "codes" not in forms[1:]
    assert [padded for _, padded in compositions] == [2] * len(compositions)
    assert not encoded and consistent


def _record_identity_joins(monkeypatch) -> list:
    """Spy on ``_JoinChain.apply``: one ``(right bindings, LEFT JOIN?,
    identity left rows?, chain)`` per applied join, from any thread."""
    from repro.sqlengine.executor import _JoinChain

    applied = []
    apply = _JoinChain.apply

    def recording_apply(chain, l_idx, r_idx, right, step):
        applied.append((tuple(right.bindings), step.outer, l_idx is None,
                        chain))
        apply(chain, l_idx, r_idx, right, step)

    monkeypatch.setattr(_JoinChain, "apply", recording_apply)
    return applied


def test_all_matching_join_passes_the_probe_side_through(monkeypatch):
    """A join that keeps every probe row once leaves the probe binding's
    map the identity: the chain hands out the stored table's own column
    object, and ``CREATE TABLE AS`` stores it as it is."""
    applied = _record_identity_joins(monkeypatch)
    rng = np.random.default_rng(8)
    with Database() as db:
        db.load_table("e", {"v1": rng.integers(0, 300, 2000),
                            "v2": rng.integers(0, 300, 2000)})
        db.load_table("r", {"v": rng.permutation(300),
                            "rep": rng.integers(0, 1 << 40, 300)})
        edges = db.table("e")
        for join in ("e, r where e.v1 = r.v",
                     "e left join r on (e.v1 = r.v)"):
            applied.clear()
            db.execute(f"create table t as select e.v2, r.rep from {join}")
            ((_, _, identity, chain),) = applied
            assert identity
            assert chain.column("e.v2") is edges.column("v2")
            assert db.table("t").column("v2") is edges.column("v2")
            db.execute("drop table t")
        # One unmatched probe row: the probe side is gathered again.
        db.execute("insert into e values (1000, 1)")
        applied.clear()
        db.execute("select e.v2, r.rep from e left join r on (e.v1 = r.v)")
        ((_, _, identity, chain),) = applied
        assert not identity
        assert chain.column("e.v2") is not db.table("e").column("v2")


def test_rc_fast_joins_keep_every_probe_row(monkeypatch):
    """Engagement: on G(1500, 3000) every relabel-src join (``r1``) and
    every contract join (``r2``) of the fast variant's rounds matches each
    edge row once, so none of them builds a left row map."""
    from repro.core import RandomisedContraction
    from repro.graphs import gnm_random_graph
    from repro.graphs.io import load_edges_into

    applied = _record_identity_joins(monkeypatch)
    edges = gnm_random_graph(1500, 3000, np.random.default_rng(19))
    with Database() as db:
        load_edges_into(db, "edges", edges)
        result = RandomisedContraction().run(db, "edges", seed=5)
    loop = [identity for bindings, outer, identity, _ in applied
            if not outer and bindings in (("r1",), ("r2",))]
    assert result.rounds > 3
    assert len(loop) == 2 * result.rounds
    assert all(loop)


def test_rc_deterministic_space_compositions_keep_every_label_row(
        monkeypatch):
    """Engagement: on a path (one component) every composition — round 2
    on, each a LEFT JOIN of the full label table — matches every label row
    once and builds no left row map; neither do the contractions."""
    from repro.graphs import path_graph

    applied = _record_identity_joins(monkeypatch)
    result, _, _, consistent = _run_deterministic_space(monkeypatch,
                                                        path_graph(1500))
    compositions = [identity for _, outer, identity, _ in applied if outer]
    contractions = [identity for _, outer, identity, _ in applied
                    if not outer]
    assert consistent and result.rounds > 3
    assert compositions == [True] * (result.rounds - 1)
    assert contractions == [True] * (2 * result.rounds)


def test_plain_sparse_pairs_are_grouped_into_key_order(monkeypatch):
    """Plain 64-bit pairs whose offsets overflow a word — a DISTINCT
    straight over stored field values — are grouped, and come out in key
    order like every DISTINCT."""
    rng = np.random.default_rng(3)
    a = rng.integers(-(2 ** 62), 2 ** 62, 40)[rng.integers(0, 40, 400)]
    b = rng.integers(-(2 ** 62), 2 ** 62, 40)[rng.integers(0, 40, 400)]
    db = Database(n_segments=4)
    db.load_table("t", {"a": a, "b": b})
    taken = record_branches(monkeypatch)
    rows = db.execute("select distinct a, b from t").rows()
    assert taken == ["grouped"]
    assert rows == sorted(set(zip(a.tolist(), b.tolist())))


# ---------------------------------------------------------------------------
# the join chain: every join — one or many — streams through composed
# row-index maps; the rows are sqlite's, and the chain's virtual size is
# byte for byte the size of the frame it would gather
# ---------------------------------------------------------------------------


def _chain_db(middle_empty=False, null_keys=False,
              empty_build=False) -> Database:
    """Three tables wired for e ⋈ r ⋈ r chains (the contraction shape).
    Teed: every ``execute`` is also compared with sqlite's result."""
    db = tee(Database(n_segments=4))
    rng = np.random.default_rng(9)
    n = 3000
    v1 = rng.integers(0, 250, n)
    v2 = rng.integers(0, 250, n)
    if middle_empty:
        v1 = v1 + 10_000  # no key overlaps the reps table: middle join empty
    db.load_table("e", {"v1": v1, "v2": v2, "w": rng.integers(0, 9, n)},
                  distributed_by="v1")
    n_reps = 0 if empty_build else 250
    db.load_table("r", {
        "v": np.arange(n_reps, dtype=np.int64),
        "rep": rng.integers(0, 250, n_reps),
    }, distributed_by="v")
    if null_keys:
        mask_rows = rng.random(n) < 0.3
        values = np.where(mask_rows, 0, v1)
        db.execute("create table en (v1 int64, v2 int64)")
        nullable = ["null" if m else str(v) for m, v in
                    zip(mask_rows[:60], values[:60])]
        rows = ", ".join(f"({a}, {b})" for a, b in zip(nullable, v2[:60]))
        db.execute(f"insert into en values {rows}")
    return db


CHAIN_QUERIES = [
    # Plain three-table chain, projection only.
    "select e.w, rv.rep, rw.rep from e, r as rv, r as rw "
    "where e.v1 = rv.v and e.v2 = rw.v",
    # Chain feeding the fused DISTINCT (the contraction query itself).
    "select distinct rv.rep as v1, rw.rep as v2 from e, r as rv, r as rw "
    "where e.v1 = rv.v and e.v2 = rw.v and rv.rep != rw.rep",
    # Chain feeding a GROUP BY.
    "select rv.rep g, count(*) c, min(e.w) m from e, r as rv, r as rw "
    "where e.v1 = rv.v and e.v2 = rw.v group by rv.rep",
    # Residual predicate over the chained output.
    "select e.w, rw.rep from e, r as rv, r as rw "
    "where e.v1 = rv.v and e.v2 = rw.v and rv.rep != rw.rep and e.w > 3",
]


# One join runs on the chain like any other pipeline; only the fusion
# counters tell it apart (they count chains of >= 2 joins).
SINGLE_JOIN_QUERIES = [
    "select e.w, rv.rep from e, r as rv where e.v1 = rv.v",
    # LEFT JOIN: all matched in the default database, none under
    # ``middle_empty``, every row padded under ``empty_build``.
    "select e.w, lj.rep from e left join r as lj on (e.v1 = lj.v)",
    # No equality edge: the cartesian arm of the step routine.
    "select e.v1, s.rep from e, r as s where e.w = 8 and s.v < 5",
]

# Over ``en`` (``null_keys=True``), whose ``v1`` holds NULLs: they never
# match, and only a LEFT JOIN keeps their rows, null-extended.  The last
# query of each list is a single join.
NULL_KEY_CHAIN_QUERIES = [
    "select en.v2, rv.rep, rw.rep from en, r as rv, r as rw "
    "where en.v1 = rv.v and en.v2 = rw.v",
    "select en.v2, rv.rep from en, r as rv where en.v1 = rv.v",
]
NULL_KEY_LEFT_CHAIN_QUERIES = [
    "select en.v2, rv.rep, lj.rep from en join r as rv "
    "on (en.v2 = rv.v) left join r as lj on (en.v1 = lj.v)",
    # All-NULL probe key column via an always-NULL left-join chain.
    "select en.v1, a.rep, b.rep from en left join r as a "
    "on (en.v1 = a.v) left join r as b on (en.v1 = b.v)",
    "select en.v1, lj.rep from en left join r as lj on (en.v1 = lj.v)",
]

_ONE_JOIN = {*SINGLE_JOIN_QUERIES, NULL_KEY_CHAIN_QUERIES[-1],
             NULL_KEY_LEFT_CHAIN_QUERIES[-1]}


def _assert_chain_matches(query, db):
    """sqlite agrees with the teed ``db`` on ``query``, and the chain
    counter moved exactly when the pipeline has two or more joins."""
    db.execute(query)
    assert (db.stats.join_chain_fusions > 0) == (query not in _ONE_JOIN)


@pytest.mark.parametrize("query", CHAIN_QUERIES + SINGLE_JOIN_QUERIES)
def test_join_chain_matches_sqlite(query):
    _assert_chain_matches(query, _chain_db())


@pytest.mark.parametrize("query", CHAIN_QUERIES + SINGLE_JOIN_QUERIES)
def test_join_chain_with_empty_build_side(query):
    """A chain over an empty build side collapses every downstream step to
    zero rows without a kernel error."""
    db = _chain_db(empty_build=True)
    _assert_chain_matches(query, db)
    assert db.execute(CHAIN_QUERIES[0]).rowcount == 0


@pytest.mark.parametrize("query", CHAIN_QUERIES + SINGLE_JOIN_QUERIES)
def test_join_chain_with_zero_row_middle_join(query):
    """The middle join of the chain matches nothing: every later map is
    empty and the output is the empty relation."""
    db = _chain_db(middle_empty=True)
    _assert_chain_matches(query, db)
    assert db.execute(CHAIN_QUERIES[0]).rowcount == 0


def test_join_chain_with_all_null_keys():
    """NULL join keys never match (SQL semantics); a chain whose first
    edge runs over a NULL-bearing column must drop exactly the rows sqlite
    drops."""
    for query in NULL_KEY_CHAIN_QUERIES:
        db = _chain_db(null_keys=True)
        _assert_chain_matches(query, db)
    # All-NULL key column: zero output rows, no kernel error.
    all_null = ("select rv.rep from en, r as rv where en.v1 = rv.v "
                "and en.v1 != en.v1")
    assert db.execute(all_null).rowcount == 0


def test_join_chain_followed_by_left_join():
    """LEFT JOINs stream inside the chain: the null-extended probe rows
    ride the composed maps as a validity mask and only materialisation
    resolves them — into the padded rows sqlite produces."""
    query = ("select e.w, rv.rep, lj.rep from e join r as rv "
             "on (e.v1 = rv.v) join r as rw on (e.v2 = rw.v) "
             "left outer join r as lj on (rv.rep = lj.v)")
    db = _chain_db()
    _assert_chain_matches(query, db)
    assert db.stats.left_chain_fusions > 0


def test_join_chain_counter_requires_two_joins():
    """A single join is not a chain — the counter must stay silent."""
    db = _chain_db()
    db.execute("select e.w, rv.rep from e, r as rv where e.v1 = rv.v")
    assert db.stats.join_chain_fusions == 0
    db.execute("select e.w, rv.rep, rw.rep from e, r as rv, r as rw "
               "where e.v1 = rv.v and e.v2 = rw.v")
    assert db.stats.join_chain_fusions == 1


# ---------------------------------------------------------------------------
# LEFT JOINs streaming inside the chain: edge cases, DISTINCT and GROUP BY
# ---------------------------------------------------------------------------


LEFT_CHAIN_QUERIES = [
    # Inner step then a LEFT JOIN, projection only.
    "select e.w, rv.rep, lj.rep from e join r as rv on (e.v1 = rv.v) "
    "left outer join r as lj on (e.v2 = lj.v)",
    # LEFT JOIN feeding a second LEFT JOIN (outer build over outer output).
    "select e.w, a.rep, b.rep from e left join r as a on (e.v1 = a.v) "
    "left join r as b on (a.rep = b.v)",
    # LEFT JOIN tail into the fused DISTINCT.
    "select distinct rv.rep, lj.rep from e join r as rv on (e.v1 = rv.v) "
    "left outer join r as lj on (e.v2 = lj.v)",
    # LEFT JOIN tail into a GROUP BY (keys on the left side;
    # aggregates over the null-extended build columns).
    "select rv.rep g, count(*) c, min(lj.rep) m, count(lj.v) k from e "
    "join r as rv on (e.v1 = rv.v) left join r as lj on (e.v2 = lj.v) "
    "group by rv.rep",
    # ... with a residual predicate filtering the padded stream.
    "select e.v1 g, count(*) c, sum(lj.rep) s from e join r as rv "
    "on (e.v1 = rv.v) left join r as lj on (e.v2 = lj.v) "
    "where e.w > 2 group by e.v1",
    # A WHERE over the LEFT-joined binding filters the joined rows: a
    # null-extended row fails ``lj.rep > 2`` and is all ``lj.v is null``
    # keeps.  Pushed below the join, either would null-extend rows
    # instead.  Over a stored table ...
    "select e.w, rv.rep, lj.rep from e join r as rv on (e.v1 = rv.v) "
    "left join r as lj on (e.v2 = lj.v) where lj.rep > 2",
    "select e.w, rv.rep from e join r as rv on (e.v1 = rv.v) "
    "left join r as lj on (e.v2 = lj.v) where lj.v is null",
    # ... and over a subquery that misses some keys.
    "select e.v1, rv.rep, lj.w from e join r as rv on (e.v1 = rv.v) "
    "left join (select r.v, r.rep as w from r where r.v < 200) as lj "
    "on (e.v2 = lj.v) where lj.w > 2",
    "select e.v1, rv.rep from e join r as rv on (e.v1 = rv.v) "
    "left join (select r.v, r.rep as w from r where r.v < 200) as lj "
    "on (e.v2 = lj.v) where lj.v is null",
]


def _assert_left_chain_matches(query, db):
    _assert_chain_matches(query, db)
    assert (db.stats.left_chain_fusions > 0) == (query not in _ONE_JOIN)


@pytest.mark.parametrize("query", LEFT_CHAIN_QUERIES)
def test_left_join_chain_matches_sqlite(query):
    _assert_left_chain_matches(query, _chain_db())


@pytest.mark.parametrize("query", LEFT_CHAIN_QUERIES)
def test_left_join_chain_with_empty_build_side(query):
    """An empty outer build side pads every probe row with NULLs — the
    chain must resolve its all-NO_MATCH maps to all-NULL columns without
    indexing into the empty frame."""
    _assert_left_chain_matches(query, _chain_db(empty_build=True))


def test_left_join_chain_with_all_null_probe_keys():
    """NULL probe keys never match (SQL semantics) but — unlike an inner
    join — their rows survive null-extended; the chain must carry the
    NULLs sqlite pads through both outer joins."""
    for query in NULL_KEY_LEFT_CHAIN_QUERIES:
        _assert_left_chain_matches(query, _chain_db(null_keys=True))


# ---------------------------------------------------------------------------
# chain motion accounting for text columns: exact per-row bytes
# ---------------------------------------------------------------------------


def _text_chain_db() -> Database:
    """The e ⋈ r ⋈ r chain with a skewed-width text payload on e: a few
    very long labels among many short ones, the shape a mean-row-width
    estimate misprices when the join's row multiplicities correlate with
    the width."""
    db = tee(Database(n_segments=4))
    rng = np.random.default_rng(41)
    n = 2000
    v1 = rng.integers(0, 150, n)
    labels = np.array(["x" * int(w) for w in rng.integers(1, 8, n)],
                      dtype=object)
    # Skew: low keys (which join to many reps rows) carry huge labels.
    labels[v1 < 20] = "the-skewed-extremely-wide-label-" * 8
    db.load_table("e", {"v1": v1, "v2": rng.integers(0, 150, n),
                        "lbl": labels}, distributed_by="v1")
    db.load_table("r", {
        "v": np.arange(150, dtype=np.int64),
        "rep": rng.integers(0, 150, 150),
    }, distributed_by="v")
    return db


TEXT_CHAIN_QUERIES = [
    "select e.lbl, rv.rep, rw.rep from e, r as rv, r as rw "
    "where e.v1 = rv.v and e.v2 = rw.v",
    "select e.lbl, rv.rep, lj.rep from e join r as rv on (e.v1 = rv.v) "
    "join r as rw on (e.v2 = rw.v) left outer join r as lj "
    "on (rv.rep = lj.v)",
]


# ---------------------------------------------------------------------------
# GROUP BY through outer padding: group keys on the padded (right) binding
# of a left-outer final join — padded rows form NULL-key groups.  The join
# chain streams; the aggregation runs over its materialised frame.
# ---------------------------------------------------------------------------


OUTER_GROUP_QUERIES = [
    # Single LEFT JOIN straight into GROUP BY on the padded binding.
    "select lj.rep g, count(*) c, min(e.w) m from e "
    "left join r as lj on (e.v2 = lj.v) group by lj.rep",
    # LEFT JOIN tail of an inner chain, keyed on the padded binding.
    "select lj.rep g, count(*) c, sum(e.w) s from e join r as rv "
    "on (e.v1 = rv.v) left join r as lj on (e.v2 = lj.v) group by lj.rep",
    # Multi-key: padded-binding key alongside a probe-side key.
    "select lj.v a, e.w b, count(*) c from e join r as rv "
    "on (e.v1 = rv.v) left join r as lj on (e.v2 = lj.v) "
    "group by lj.v, e.w",
    # LEFT JOIN feeding a LEFT JOIN, tail into GROUP BY on the final
    # padded binding (padding over already-padded probe rows).
    "select b.rep g, count(*) c, min(a.rep) m from e left join r as a "
    "on (e.v1 = a.v) left join r as b on (a.rep = b.v) group by b.rep",
    # Residual predicate filtering the padded stream before grouping.
    "select lj.rep g, count(*) c from e join r as rv on (e.v1 = rv.v) "
    "left join r as lj on (e.v2 = lj.v) where e.w > 3 group by lj.rep",
]


@pytest.mark.parametrize("query", OUTER_GROUP_QUERIES)
def test_outer_padded_group_keys_match_sqlite(query):
    _chain_db().execute(query)  # teed: the groups are sqlite's


@pytest.mark.parametrize("query", OUTER_GROUP_QUERIES)
def test_outer_padded_group_keys_with_empty_build_side(query):
    """An empty build side pads *every* probe row: the padded key column
    is all-NULL and collapses to the single NULL-key group (or one group
    per surviving left-side key combination on multi-key shapes)."""
    _chain_db(empty_build=True).execute(query)  # teed


def test_outer_padded_group_keys_with_null_probe_keys():
    """NULL probe keys never match but survive null-extended: their padded
    rows must land in the NULL-key group exactly as sqlite groups them."""
    query = ("select lj.rep g, count(*) c, count(lj.v) k from en "
             "left join r as lj on (en.v1 = lj.v) group by lj.rep")
    _chain_db(null_keys=True).execute(query)  # teed


def test_outer_padded_group_aggregates_see_padded_nulls():
    """Aggregates over the padded binding's columns: count(col) skips the
    padded NULLs, count(*) keeps them — per group."""
    db = tee(Database(n_segments=4))
    db.execute("create table e (v1 int64, v2 int64)")
    db.execute("insert into e values (1, 10), (1, 99), (2, 11), "
               "(2, 99), (3, 98)")
    db.execute("create table w (v int64, x int64)")
    db.execute("insert into w values (10, 7), (11, 5)")
    q = ("select w.x g, count(*) c, count(w.v) k from e "
         "left join w on (e.v2 = w.v) group by w.x")
    rows = dict((g, (c, k)) for g, c, k in db.execute(q).rows())
    assert rows[None] == (3, 0)  # the padded NULL-key group


# ---------------------------------------------------------------------------
# chain motion accounting: a join input is charged at ``chain.byte_size()``,
# which must be the byte size of the frame really gathered at that point —
# null-extension masks, all-NULL padding and exact text widths included
# ---------------------------------------------------------------------------


_PLAIN_QUERIES = CHAIN_QUERIES + LEFT_CHAIN_QUERIES + SINGLE_JOIN_QUERIES
_BYTE_SIZE_DBS = {
    "plain": _chain_db,
    "empty_build": lambda: _chain_db(empty_build=True),
    "null_keys": lambda: _chain_db(null_keys=True),
    "text": _text_chain_db,
}
BYTE_SIZE_CASES = (
    [("plain", q) for q in _PLAIN_QUERIES]
    + [("empty_build", q) for q in _PLAIN_QUERIES]
    + [("null_keys", q)
       for q in NULL_KEY_CHAIN_QUERIES + NULL_KEY_LEFT_CHAIN_QUERIES]
    + [("text", q) for q in TEXT_CHAIN_QUERIES]
)


@pytest.mark.parametrize("database, query", BYTE_SIZE_CASES)
def test_chain_byte_size_is_the_gathered_frames(database, query,
                                                monkeypatch):
    """After every applied join — intermediate and fused-final alike — the
    chain's virtual ``byte_size()`` equals the size of the frame it
    materialises there: text columns at exact per-row byte lengths through
    the composed maps, not a mean row width."""
    from repro.sqlengine.executor import _JoinChain

    apply = _JoinChain.apply
    sizes = []

    def checked_apply(chain, l_idx, r_idx, right, step):
        apply(chain, l_idx, r_idx, right, step)
        sizes.append((chain.byte_size(),
                      chain.materialise(step).byte_size()))

    monkeypatch.setattr(_JoinChain, "apply", checked_apply)
    _BYTE_SIZE_DBS[database]().execute(query)
    assert sizes  # at least one join ran on the chain
    assert all(virtual == gathered for virtual, gathered in sizes)


# ---------------------------------------------------------------------------
# the schema each core shape produces
# ---------------------------------------------------------------------------


def _schema_db() -> Database:
    db = Database(n_segments=4)
    db.load_table("e", {"v1": np.array([1, 1, 2, 3, 3]),
                        "v2": np.array([2, 3, 3, 4, 5])}, distributed_by="v1")
    db.load_table("n", {"v": np.array([1, 2, 3]),
                        "w": np.array([10, 20, 30])}, distributed_by="v")
    return db


#: (SQL, storage names, display names, distribution) per core shape.
CORE_SHAPES = [
    pytest.param("select * from n a, n b where a.v = b.v",
                 ["v", "w", "v__3", "w__4"], ["v", "w", "v", "w"], "v",
                 id="star-over-inner-join"),
    pytest.param("select distinct a.v1, b.v1 from e a, e b "
                 "where a.v1 = b.v1",
                 ["v1", "v1__2"], ["v1", "v1"], "v1",
                 id="repeated-display-names-under-distinct"),
    pytest.param("select v1 as k, v2 from e", ["k", "v2"], ["k", "v2"], "k",
                 id="alias"),
    pytest.param("select v1, count(*) c from e group by v1",
                 ["v1", "c"], ["v1", "c"], "v1", id="bare-group-key"),
    pytest.param("select e.v1 k, min(e.v2) m from e group by e.v1",
                 ["k", "m"], ["k", "m"], "k", id="qualified-group-key"),
    pytest.param("select count(*), max(v2) from e",
                 ["column1", "column2"], ["column1", "column2"], None,
                 id="aggregate-only"),
    pytest.param("select distinct n.v, e.v2 from e, n "
                 "where e.v1 = n.v and e.v2 > 2",
                 ["v", "v2"], ["v", "v2"], "v", id="fused-join-distinct"),
    pytest.param("select e.v2, n.w from e left join n on e.v2 = n.v",
                 ["v2", "w"], ["v2", "w"], "v2", id="final-left-join"),
    pytest.param("select e.v1, n.w from e, n where e.v2 > n.v",
                 ["v1", "w"], ["v1", "w"], None, id="cartesian-step"),
    pytest.param("select s.k, s.c from "
                 "(select v2 k, count(*) c from e group by v2) s",
                 ["k", "c"], ["k", "c"], "k", id="group-by-subquery"),
    pytest.param("select v1 from e union all select v2 from e",
                 ["v1"], ["v1"], None, id="union-all"),
    pytest.param("select 1, 2 as b", ["column1", "b"], ["column1", "b"],
                 None, id="select-without-from"),
]


@pytest.mark.parametrize("sql, names, display, distribution", CORE_SHAPES)
def test_core_shape_schema(sql, names, display, distribution):
    """Each core shape's storage names, display names and distribution,
    cold and from the cached plan alike."""
    db = _schema_db()
    for _ in range(2):
        relation = db.execute(sql).relation
        assert relation.names == names
        assert relation.display_names == display
        assert relation.distribution == distribution
