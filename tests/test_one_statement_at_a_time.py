"""A database runs one statement at a time.

The plan cache patches a template's AST in place for each statement of
that template, which is only safe while no other statement is running.
``Database.execute`` makes that structural: a statement issued while
another is in flight — the only way to get there is a function the
running statement calls — is refused with an ``ExecutionError`` before it
reaches the plan cache, and any statement that fails, however it fails,
leaves the database ready for the next one.
"""

import numpy as np
import pytest

from repro.cli import main
from repro.core import RandomisedContraction
from repro.core.labels import validate_labelling
from repro.graphs import gnm_random_graph, load_edges_into
from repro.sqlengine import Database
from repro.sqlengine.errors import CatalogError, ExecutionError, SqlError
from repro.sqlengine.plancache import normalize_statement

EDGES = gnm_random_graph(400, 700, np.random.default_rng(5))


def _base(db: Database) -> None:
    db.load_table("base", {"v": np.arange(64, dtype=np.int64)},
                  distributed_by="v")


@pytest.mark.parametrize("call", ["execute", "execute_script"])
def test_function_executing_sql_is_refused_then_rc_runs(call):
    """A UDF that executes SQL on its own database fails its statement
    with a clear error, and the same database then labels a graph like
    union-find."""
    with Database() as db:
        _base(db)

        def nested(values):
            getattr(db, call)("select count(*) from base")
            return values

        db.create_function("nested", nested)
        with pytest.raises(ExecutionError, match="one at a time"):
            db.execute("select nested(v) w from base")
        load_edges_into(db, "edges", EDGES)
        result = RandomisedContraction(variant="deterministic-space").run(
            db, "edges", seed=3)
        report = validate_labelling(EDGES, *result.labels(db))
        assert report.valid, report.reason


def test_refused_statement_never_reaches_the_running_template():
    """The hazard the refusal removes: a function running a statement of
    the running statement's own template, which would re-patch that
    template's AST under it.  Even when the function swallows the error,
    the running statement keeps its own parameters, and the refused one
    leaves no trace in the plan cache, the counters or the log."""
    with Database() as db:
        _base(db)
        refusals = []

        def spy(values):
            if not refusals:
                try:
                    db.execute("select v, spy(v) w from base where v < 60")
                except ExecutionError as error:
                    refusals.append(error)
            return values

        db.create_function("spy", spy)
        db.execute("select v, spy(v) w from base where v < 3")  # warm
        before = db.stats.snapshot()
        refusals.clear()
        rows = db.execute("select v, spy(v) w from base where v < 5").rows()
        assert len(refusals) == 1
        assert rows == [(v, v) for v in range(5)]
        delta = db.stats.snapshot().delta(before)
        assert delta.queries == 1 and len(db.stats.log) == 2
        assert (delta.plan_cache_hits, delta.plan_cache_misses) == (1, 0)
        assert db.execute(
            "select v, spy(v) w from base where v < 7").rowcount == 7


@pytest.mark.parametrize("sql", [
    "select v from edges where v > 0",
    "select e.v from edges as e, reps as r where e.v = r.v",
    "create table fresh as select v from edges distributed by (v)",
    "create table fresh (v int64)",
    "insert into t values (1)",
    "insert into t select v from edges",
    "drop table a, b",
    "alter table old rename to new",
    "truncate table t",
    "select s.a from (select v a from edges) as s join reps as r "
    "on (s.a = r.v)",
])
def test_every_statement_kind_is_refused_inside_a_statement(sql):
    """Reads, writes, DDL and renames alike: issued from a function the
    running statement calls, the statement is refused before it is parsed
    into the plan cache, and leaves the catalog, the space accounting and
    the log as they were."""
    with Database() as db:
        _base(db)
        for name in ("edges", "reps", "t", "a", "b", "old"):
            db.load_table(name, {"v": np.arange(8, dtype=np.int64)})
        refusals = []

        def nested(values):
            try:
                db.execute(sql)
            except ExecutionError as error:
                refusals.append(error)
                raise
            return values

        db.create_function("nested", nested)

        def state():
            tables = {name: db.table(name).n_rows
                      for name in db.table_names()}
            return (tables, db.live_bytes, db.stats.bytes_written,
                    db.stats.queries, len(db.stats.log))

        before = state()
        with pytest.raises(ExecutionError, match="one at a time"):
            db.execute("select nested(v) w from base")
        assert len(refusals) == 1
        assert state() == before
        assert normalize_statement(sql)[0] not in db._plans._entries
        assert len(db._plans) == 1  # the running statement's template
        db.execute(sql)  # issued on its own, the same statement runs


def test_statements_see_what_their_predecessors_left():
    """Statements run in the order they are issued, each over the catalog
    the previous one left: a read of a fresh table, a drop of a table just
    read, a re-creation of the dropped name and a rename of it — the round
    loop's churn."""
    issued = [
        "create table a as select v from base where v < 32",
        "create table b as select v from a where v < 16",
        "drop table a",
        "create table a as select v from b where v < 8",
        "alter table a rename to final",
        "select count(*) c from final",
    ]
    with Database() as db:
        _base(db)
        results = [db.execute(sql) for sql in issued]
        assert [record.sql for record in db.stats.log] == issued
        assert results[-1].scalar() == 8
        assert sorted(db.table_names()) == ["b", "base", "final"]
        assert db.table("b").n_rows == 16


def test_a_failing_script_statement_ends_the_script():
    """``execute_script`` runs its statements one after the other: those
    before a failure took effect, none after it ran, and the database runs
    the next statement."""
    with Database() as db:
        _base(db)
        with pytest.raises(CatalogError):
            db.execute_script(
                "create table x as select v from base; "
                "create table y as select v from missing_table; "
                "create table z as select v from base")
        assert sorted(db.table_names()) == ["base", "x"]
        assert [record.sql for record in db.stats.log] == [
            "create table x as select v from base"]
        assert db.execute("select count(*) from x").scalar() == 64


@pytest.mark.parametrize("shape,note", [
    ("dense-unique", "dense"),
    ("dense-runs", "dense"),
    ("sparse-unique", "merge"),
    ("sparse-runs", "merge"),
    ("left-dense", "dense"),
])
def test_joins_start_no_thread(shape, note, monkeypatch):
    """A join runs its kernel once, on the calling thread: with a probe
    side larger than any size at which joins were once cut into per-core
    chunks, every shape leaves the interpreter's threads as it found them,
    and gives the rows of the index-less join, which sorts or counts its
    own build side."""
    import threading

    import repro.sqlengine.executor as executor_module

    notes = []
    dispatch = executor_module.Executor._dispatch_join

    def recording(self, *args):
        pair = dispatch(self, *args)
        notes.append(args[-1][-1])
        return pair

    monkeypatch.setattr(executor_module.Executor, "_dispatch_join",
                        recording)
    rng = np.random.default_rng(13)
    n, n_keys = 140_000, 200
    keys = np.arange(n_keys, dtype=np.int64)
    if shape.startswith("sparse"):
        keys = keys * (2 ** 53 + 12345)
    build_keys = rng.permutation(keys)
    if shape.endswith("runs"):
        build_keys = keys[rng.integers(0, n_keys, n_keys)]
    probe = keys[rng.integers(0, n_keys, n)]
    if shape.startswith("left"):
        build_keys = build_keys[: n_keys // 2]
        query = ("select e.v2, r.rep from e left join r "
                 "on (e.v1 = r.k)")
    else:
        query = "select e.v2, r.rep from e, r where e.v1 = r.k"

    def run(indexed):
        with Database(n_segments=4) as db:
            if not indexed:
                db._executor._stored_index = lambda frame, name: None
            db.load_table("e", {"v1": probe,
                                "v2": np.arange(n, dtype=np.int64)})
            db.load_table("r", {"k": build_keys,
                                "rep": np.arange(len(build_keys),
                                                 dtype=np.int64)})
            relation = db.execute(query).relation
            return [relation.column(name).to_list()
                    for name in relation.names]

    threads = threading.enumerate()
    got = run(True)
    assert threading.enumerate() == threads
    assert notes[0] == note
    assert got == run(False)
    assert len(got[0]) > 1 << 17  # the old chunking gate, in probe rows


@pytest.mark.parametrize("statement,error", [
    ("select from base", SqlError),
    ("select v from missing_table", SqlError),
    ("select boom(v) from base", ValueError),
], ids=["parse", "catalog", "function"])
def test_failed_statement_frees_the_database(statement, error):
    """A statement that fails while parsing, planning or executing leaves
    no statement in flight."""
    with Database() as db:
        _base(db)

        def boom(values):
            raise ValueError("boom")

        db.create_function("boom", boom)
        with pytest.raises(error):
            db.execute(statement)
        assert db.execute("select count(*) from base").scalar() == 64


def test_no_argument_or_flag_selects_a_pool_backend(capsys):
    """Kernels run on the calling thread; nothing selects a backend or a
    thread count."""
    for option in ({"pool_backend": "thread"}, {"pool_workers": 2}):
        with pytest.raises(TypeError):
            Database(**option)
    for flag in ("--backend", "--workers"):
        with pytest.raises(SystemExit):
            main(["sql", "pathunion10", "select 1", flag, "2"])
        assert flag in capsys.readouterr().err


def test_the_engine_imports_no_concurrency():
    """No module of the package imports ``threading``,
    ``concurrent.futures`` or ``multiprocessing``: the engine starts no
    thread and no process, so nothing it computes can depend on a
    schedule or on the host's core count."""
    import ast
    import pathlib

    import repro

    banned = {"threading", "_thread", "concurrent", "multiprocessing"}
    modules = sorted(pathlib.Path(repro.__file__).parent.rglob("*.py"))
    assert len(modules) > 30
    found = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [(path.name, name) for name in names
                      if name.split(".")[0] in banned]
    assert found == []
