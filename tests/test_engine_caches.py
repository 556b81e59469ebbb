"""Tests for the engine's caching layer.

Covers the two caches the hot path relies on:

* the **plan/statement cache** (template-normalised parsed ASTs) and the
  exact-text memo in front of it,
* the **table-level index cache** (versioned per-column sorted indexes),

plus the acceptance-level integration: a full Randomised Contraction run
must populate both caches while every table it writes holds the rows stdlib
sqlite computes for the same statement (``tests/sqlite_oracle.py``), and
a warm run's fixed cost — normalisations, parses, GF(2^64) map builds —
is counted, so that a repeated statement provably pays no parse work.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.core import RandomisedContraction, TwoPhase
from repro.core.unionfind import unionfind_labels
from repro.ff.gf2_64 import Gf2AffineMap
from repro.graphs import gnm_random_graph
from repro.graphs.io import load_edges_into
from repro.sqlengine import Database, operators, plancache
from repro.sqlengine.parser import parse_statement
from repro.sqlengine.plancache import PlanCache, normalize_statement

from .sqlite_oracle import tee


# ---------------------------------------------------------------------------
# plan cache
# ---------------------------------------------------------------------------


def test_normalize_parameterises_integers_and_name_suffixes():
    template, params = normalize_statement(
        "create table ccreps3 as select v1 v, axplusb(v2, 123, 45) r "
        "from ccgraph where v1 != 9"
    )
    assert params == ["3", "1", "2", "123", "45", "1", "9"]
    assert "ccreps$0" in template
    assert "$3" in template and "$4" in template
    # Floats and mid-identifier digits stay literal.
    t2, p2 = normalize_statement("select 1.5, 2e5, x2y from t12")
    assert "1.5" in t2 and "2e5" in t2 and "x2y" in t2
    assert p2 == ["12"]


def test_plan_cache_hits_across_table_suffixes_and_constants():
    cache = PlanCache()
    first, hit1, _ = cache.entry_for(
        "create table r7 as select v1, 10 c from g7 where v1 != 3"
    )
    second, hit2, _ = cache.entry_for(
        "create table r8 as select v1, 99 c from g8 where v1 != 5"
    )
    assert not hit1 and hit2
    # The patched template must equal a from-scratch parse.
    assert second == parse_statement(
        "create table r8 as select v1, 99 c from g8 where v1 != 5"
    )


def test_plan_cache_statements_execute_correctly(db):
    db.execute("create table t1 (v int64, w int64)")
    db.execute("insert into t1 values (1, 10), (2, 20)")
    db.execute("create table t2 (v int64, w int64)")
    db.execute("insert into t2 values (3, 30), (4, 40)")
    first = db.execute("select w from t1 where v = 2").scalar()
    second = db.execute("select w from t2 where v = 4").scalar()
    assert (first, second) == (20, 40)
    assert db.stats.plan_cache_hits >= 2  # the insert + select templates


def test_plan_cache_falls_back_on_uncacheable_sql(db):
    db.execute("create table t (v int64)")
    db.execute("insert into t values (7)")
    # Comments and "$" bypass the template machinery entirely.
    assert db.execute("select v from t -- trailing comment\n").scalar() == 7
    before = len(db._plans)
    db.execute("select v /* block */ from t")
    assert len(db._plans) == before
    # Digits inside string literals are not parameterised.
    db.execute("create table s (name text)")
    db.execute("insert into s values ('agent 47')")
    assert db.execute("select name from s").scalar() == "agent 47"


def test_dollar_placeholders_are_template_only(db):
    """User SQL can never smuggle a template placeholder into the engine."""
    from repro.sqlengine.errors import ParseError

    db.execute("create table t (v int64)")
    db.execute("insert into t values (1)")
    for bad in ["select $0 from t", "select x$3 from t"]:
        with pytest.raises(ParseError):
            db.execute(bad)


def test_plan_cache_is_bounded():
    cache = PlanCache(max_entries=8)
    for i in range(50):
        # Distinct templates: the column alias varies structurally.
        cache.entry_for(f"select 1 a{'x' * (i % 25)} from t")
    assert len(cache) <= 8


def test_plan_cache_repeated_hits_reuse_one_entry():
    cache = PlanCache()
    results = []
    for i in range(5):
        statement, hit, _ = cache.entry_for(f"select {i} from t{i}")
        results.append((statement, hit))
    assert [hit for _, hit in results] == [False, True, True, True, True]
    assert len(cache) == 1


@pytest.fixture
def plan_work(monkeypatch):
    """Counts of the plan cache's normalisations, template builds and
    direct parses from here on."""
    work = {"normalise": 0, "build": 0, "parse": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            work[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(plancache, "normalize_statement",
                        counted("normalise", plancache.normalize_statement))
    monkeypatch.setattr(plancache, "parse_statement",
                        counted("parse", plancache.parse_statement))
    monkeypatch.setattr(PlanCache, "_build",
                        counted("build", PlanCache._build))
    return work


#: Statements whose template fails verification: ``int64``'s digits are
#: parameterised and ``int$0`` is no column type.
UNVERIFIABLE = ("create table a (v int64)", "create table b (v int64)")


def test_memoised_text_is_served_without_normalising(plan_work):
    cache = PlanCache()
    sql = "select v1 from t7 where v1 != 3"
    first, hit, entry = cache.entry_for(sql)
    assert not hit and plan_work == {"normalise": 1, "build": 1, "parse": 1}
    again, hit, same = cache.entry_for(sql)
    assert hit and same is entry and again is first
    assert plan_work == {"normalise": 1, "build": 1, "parse": 1}
    # A memo hit re-patches what another text of the template left.
    cache.entry_for("select v1 from t8 where v1 != 4")
    assert cache.entry_for(sql)[0] == parse_statement(sql)


def test_memoised_text_whose_template_was_evicted_is_built_again(plan_work):
    """The memo holds a text whose template the cache has evicted: the
    text is normalised, parsed and verified again, never served from the
    evicted entry, and then remembered with the new one."""
    cache = PlanCache(max_entries=2)
    sql = "select v1 from t7 where v1 != 3"
    _, _, entry = cache.entry_for(sql)
    # Failed templates take cache entries but no memo slots: these two
    # evict the text's template while the memo keeps the text.
    for unverifiable in UNVERIFIABLE:
        cache.entry_for(unverifiable)
    plan_work.update(normalise=0, build=0, parse=0)
    statement, hit, rebuilt = cache.entry_for(sql)
    assert not hit and rebuilt is not entry
    assert plan_work == {"normalise": 1, "build": 1, "parse": 1}
    assert statement == parse_statement(sql)
    statement, hit, again = cache.entry_for(sql)
    assert hit and again is rebuilt and plan_work["normalise"] == 1


def test_text_of_an_unverifiable_template_is_parsed_every_time(plan_work):
    cache = PlanCache()
    sql = UNVERIFIABLE[0]
    for _ in range(3):
        statement, hit, entry = cache.entry_for(sql)
        assert (hit, entry) == (False, None)
        assert statement == parse_statement(sql)
    # One template build; a normalisation and a direct parse per lookup.
    assert plan_work == {"normalise": 3, "build": 1, "parse": 3}


def test_text_memo_is_bounded():
    cache = PlanCache(max_entries=8)
    for i in range(50):
        statement, hit, _ = cache.entry_for(f"select {i} from t{i}")
        assert hit == (i > 0)
        assert len(cache._memo) <= 8
    assert len(cache) == 1
    assert statement == parse_statement("select 49 from t49")


# ---------------------------------------------------------------------------
# table index cache
# ---------------------------------------------------------------------------


def test_index_cache_hit_and_build(db):
    db.execute("create table t (v int64)")
    db.execute("insert into t values (3), (1), (2)")
    table = db.table("t")
    index, built = table.index_for("v")
    assert built and index is not None and index.is_unique
    again, built = table.index_for("v")
    assert again is index and not built


def test_index_cache_invalidated_by_append(db):
    db.execute("create table t (v int64)")
    db.execute("insert into t values (3), (1)")
    table = db.table("t")
    stale, _ = table.index_for("v")
    db.execute("insert into t values (2)")
    fresh, built = table.index_for("v")
    assert built  # the append emptied the cache
    assert fresh is not stale
    assert fresh.n_rows == 3
    assert (fresh.min_value, fresh.max_value) == (1, 3)


def test_index_cache_invalidated_by_truncate(db):
    db.execute("create table t (v int64)")
    db.execute("insert into t values (5)")
    table = db.table("t")
    stale, _ = table.index_for("v")
    db.execute("truncate table t")
    index, built = table.index_for("v")
    assert built and index is not stale and index.n_rows == 0
    assert table.n_rows == 0


def test_stale_index_never_serves_a_join(db):
    """Append between two identical joins: the second must see the new row."""
    db.execute("create table r (v int64, rep int64)")
    db.execute("insert into r values (1, 10), (2, 20)")
    db.execute("create table e (v int64)")
    db.execute("insert into e values (1), (2), (3)")
    q = "select e.v, r.rep from e, r where e.v = r.v"
    assert len(db.execute(q).rows()) == 2
    db.execute("insert into r values (3, 30)")
    rows = sorted(db.execute(q).rows())
    assert rows == [(1, 10), (2, 20), (3, 30)]


def test_unindexable_columns_return_none(db):
    db.execute("create table t (name text, v int64)")
    db.execute("insert into t values ('a', 1)")
    table = db.table("t")
    assert table.index_for("name") == (None, False)
    db.execute("insert into t values ('b', null)")
    assert table.index_for("v") == (None, False)  # NULL-bearing column


def test_key_index_holds_five_numbers_and_no_array(db):
    """A cached index is statistics only: whatever its column — dense or
    sparse, sorted or not, plain or encoded — it keeps no array alive."""
    rng = np.random.default_rng(0)
    columns = {"dense": rng.permutation(10_000),
               "sparse": rng.permutation(10_000) << 40,
               "ordered": np.arange(10_000) // 2}
    db.load_table("t", {name: values.astype(np.int64)
                        for name, values in columns.items()})
    # The expanding join leaves ``s.dense`` dictionary-encoded.
    db.execute("create table u as select s.dense as v "
               "from t join t as s on t.ordered = s.ordered")
    assert db.table("u").column("v").codes is not None
    for table, name in [("t", name) for name in columns] + [("u", "v")]:
        index, _ = db.table(table).index_for(name)
        fields = [getattr(index, slot) for slot in type(index).__slots__]
        assert len(fields) == 5
        assert not any(isinstance(f, np.ndarray) for f in fields)
    index, _ = db.table("t").index_for("dense")
    assert index.is_unique and (index.min_value, index.max_value) == (0, 9_999)


def test_disjoint_range_join_motion_independent_of_index_cache():
    """Disjoint key ranges: the join matches nothing, and the motion
    charged for it is the stats-blind planner's — the same whether or not
    an earlier statement happened to warm the probe side's index."""
    n = 5000  # large enough that the planner redistributes, not broadcasts

    def join_motion(query, n_rows, warm_probe_index: bool) -> int:
        db = Database(n_segments=4)
        db.load_table("lo", {"v": np.arange(n, dtype=np.int64)})
        db.load_table("hi", {"v": np.arange(n, dtype=np.int64) + 10 ** 12,
                             "w": np.ones(n, dtype=np.int64)})
        if warm_probe_index:
            # The probe side's index is never built speculatively; an
            # earlier keyed operation (a GROUP BY, as in the contraction
            # rounds) warms it.
            db.execute("select v, count(*) c from lo group by v")
        before = db.stats.motion_bytes
        assert db.execute(query).scalar() == n_rows
        return db.stats.motion_bytes - before

    for query, n_rows in [
        ("select count(*) from lo, hi where lo.v = hi.v", 0),
        # An outer join null-extends every probe row.
        ("select count(*) from lo left join hi on (lo.v = hi.v) "
         "where hi.w is null", n),
    ]:
        assert (join_motion(query, n_rows, True)
                == join_motion(query, n_rows, False) > 0)


@pytest.mark.parametrize("warm_probe_index", [True, False])
def test_probe_side_index_is_neither_read_nor_built(warm_probe_index):
    """``relabel-src`` joins ``graph.v1 = reps.v``: the join builds the
    build side's index and leaves the probe side's alone, cached (by an
    earlier join that built on ``graph.v1``) or not — a probe side is
    searched as it lies, and its index has nothing a route reads."""
    rng = np.random.default_rng(4)
    n = 3 * operators.CACHE_KERNEL_MIN_ROWS
    v1 = rng.integers(-(2 ** 62), 2 ** 62, n // 3)[rng.integers(0, n // 3, n)]
    reps = np.unique(v1)

    db = tee(Database(n_segments=4))
    db.load_table("graph", {"v1": v1, "v2": np.arange(n)})
    db.load_table("reps", {"v": reps, "rep": -np.arange(reps.shape[0])})
    if warm_probe_index:
        db.execute("select reps.v from reps left outer join graph "
                   "on (reps.v = graph.v1)")
    before = db.stats.snapshot()
    # Teed: the join's rows are sqlite's.
    db.execute("select r1.rep as v1, v2 from graph, reps as r1 "
               "where graph.v1 = r1.v")
    delta = db.stats.snapshot().delta(before)
    assert delta.index_cache_misses == 1
    assert delta.index_cache_hits == 0
    # Cached already: neither call builds an index.
    assert db.table("reps").index_for("v")[1] is False
    assert db.table("graph").index_for("v1")[1] is not warm_probe_index


# ---------------------------------------------------------------------------
# integration: Randomised Contraction end-to-end
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("variant", ["fast", "deterministic-space"])
def test_randomised_contraction_exercises_caches(variant):
    edges = gnm_random_graph(600, 1100, np.random.default_rng(11))

    # Teed: sqlite referees every table the run writes.
    db = tee(Database(n_segments=4))
    load_edges_into(db, "edges", edges)
    result = RandomisedContraction(variant=variant).run(db, "edges", seed=5)
    vertices, labels = result.labels(db)
    # Acceptance: caches must actually engage during the run.
    assert result.stats.plan_cache_hits > 0
    assert result.stats.index_cache_hits > 0
    # And the labelling partitions vertices exactly like union-find does.
    truth = unionfind_labels(edges)
    by_vertex = dict(zip(vertices.tolist(), labels.tolist()))
    assert set(by_vertex) == set(truth)
    grouped: dict[int, set[int]] = {}
    for vertex, label in by_vertex.items():
        grouped.setdefault(label, set()).add(vertex)
    truth_grouped: dict[int, set[int]] = {}
    for vertex, label in truth.items():
        truth_grouped.setdefault(label, set()).add(vertex)
    assert sorted(map(sorted, grouped.values())) == \
        sorted(map(sorted, truth_grouped.values()))


# ---------------------------------------------------------------------------
# the text memo over whole runs: same ASTs, same counters, no parse work
# ---------------------------------------------------------------------------


#: Runs on one database over a G(1k, 2k): the algorithm, the seed and the
#: run's ``(plan_cache_hits, plan_cache_misses)`` as recorded at commit
#: ``4a91b31``, before statement texts were memoised: the memo serves a
#: text exactly when the template cache did.
MEMO_RUNS = (
    ("fast", 1, (53, 12)),
    ("fast", 2, (57, 0)),
    ("deterministic-space", 1, (47, 10)),
    ("deterministic-space", 2, (50, 0)),
    ("two-phase", 1, (39, 11)),
)


def _g1k_2k():
    return gnm_random_graph(1000, 2000, np.random.default_rng(3))


def test_memoised_runs_parse_like_the_parser_and_count_as_before(
        plan_work, monkeypatch):
    lookups = []
    entry_for = PlanCache.entry_for

    def checked(self, sql):
        statement, hit, entry = entry_for(self, sql)
        # Compared before the statement runs: the next lookup re-patches.
        assert statement == parse_statement(sql), sql
        lookups.append(sql)
        return statement, hit, entry

    monkeypatch.setattr(PlanCache, "entry_for", checked)
    counts = []
    with Database() as db:
        load_edges_into(db, "edges", _g1k_2k())
        for algorithm, seed, _ in MEMO_RUNS:
            algo = TwoPhase() if algorithm == "two-phase" \
                else RandomisedContraction(variant=algorithm)
            stats = algo.run(db, "edges", seed=seed).stats
            counts.append((stats.plan_cache_hits, stats.plan_cache_misses))
    assert counts == [golden for *_, golden in MEMO_RUNS]
    # Each text is normalised once, however often it runs.
    assert plan_work["normalise"] == len(set(lookups)) < len(lookups)


def test_a_warm_run_repeats_no_parse_work(plan_work, monkeypatch):
    """The fixed cost of a warm contraction run, counted rather than
    timed: a text the database has run before is neither normalised nor
    parsed again, so re-running a seed normalises nothing and a fresh
    seed normalises its representatives and composition statements only
    — the ones carrying the round's random constants — and no round
    builds more than two GF(2^64) maps (its h, and the composition's
    accumulated affine map).  The fresh seed takes as many rounds (8) as
    a warm-up run did: the texts naming the last round are new
    otherwise."""
    maps = []
    init = Gf2AffineMap.__init__

    def counting(self, a, b):
        maps.append((a, b))
        init(self, a, b)

    monkeypatch.setattr(Gf2AffineMap, "__init__", counting)
    algo = RandomisedContraction()
    with Database() as db:
        load_edges_into(db, "edges", _g1k_2k())
        execute = db.execute
        issued = []

        def recording(sql, label=""):
            issued.append((label.rpartition(":")[2], sql))
            return execute(sql, label=label)

        db.execute = recording
        for seed in (1, 2, 3):
            algo.run(db, "edges", seed=seed)
        seen = {sql for _, sql in issued}
        for seed, fresh in ((3, False), (6, True)):
            issued.clear()
            maps.clear()
            plan_work.update(normalise=0, build=0, parse=0)
            rounds = algo.run(db, "edges", seed=seed).rounds
            constants = [sql for kind, sql in issued
                         if kind in ("reps", "compose")]
            new = [sql for _, sql in issued if sql not in seen]
            assert new == (constants if fresh else [])
            assert plan_work["normalise"] == len(new)
            assert plan_work["build"] == plan_work["parse"] == 0
            assert len(maps) <= 2 * rounds
            seen.update(sql for _, sql in issued)


def test_stmt_costs_script_reports_one_shape():
    """``scripts/stmt_costs.py`` on a small G(n, m): every statement kind
    of the fast contraction timed, and the plan-cache and GF(2^64) shares
    of the wall-clock reported."""
    spec = importlib.util.spec_from_file_location(
        "stmt_costs",
        Path(__file__).resolve().parent.parent / "scripts" / "stmt_costs.py")
    stmt_costs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(stmt_costs)
    costs = stmt_costs.measure(200, 400, warmups=1, runs=2)
    kinds = costs["kinds"]
    assert set(kinds) == {"setup", "reps", "relabel-src", "contract",
                          "compose", "ddl"}
    assert kinds["setup"] == 2
    assert kinds["reps"] == kinds["relabel-src"] == kinds["contract"] \
        == kinds["compose"] + 2
    assert all(0 < seconds < costs["wall_s"]
               for seconds in costs["method_s"].values())
    report = stmt_costs.report("G(200, 400)", costs).splitlines()
    assert report[0].startswith("G(200, 400): 2 warm runs")
    assert len(report) == 1 + len(kinds) + len(stmt_costs.SHARES) == 9
