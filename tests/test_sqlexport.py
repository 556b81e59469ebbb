"""Tests for the PostgreSQL export of Randomised Contraction.

The exported PL/pgSQL procedure cannot run here (no PostgreSQL offline),
but its round queries are shared templates that *are* executed — one full
contraction driven with the exported SQL skeleton against our engine, and
one against stdlib sqlite3 (``tests/sqlite_oracle.py``), each validated
against ground truth.
"""

import random

import numpy as np
import pytest

from repro.core.labels import validate_labelling
from repro.core.sqlexport import engine_round_queries, postgres_script
from repro.core.unionfind import unionfind_labels
from repro.ff.gfp import MERSENNE_31
from repro.graphs import EdgeList, gnm_random_graph, load_edges_into
from repro.sqlengine import Database

from .sqlite_oracle import SqliteOracle


def test_script_contains_the_figure3_structure():
    script = postgres_script()
    assert "create or replace procedure randomised_contraction()" in script
    assert "union all" in script
    assert f"% {MERSENNE_31}" in script
    assert "left outer join" in script
    assert "coalesce" in script
    assert "exit when row_count = 0" in script


def test_script_parameterisation():
    script = postgres_script(edges_table="my_edges", result_table="labels",
                             p=101, prefix="x_")
    assert "my_edges" in script
    assert "labels" in script
    assert "% 101" in script
    assert "x_e" in script


def test_script_rejects_composite_p():
    with pytest.raises(ValueError, match="not prime"):
        postgres_script(p=100)


def test_script_rejects_weird_table_names():
    with pytest.raises(ValueError, match="suspicious"):
        postgres_script(edges_table="edges; drop table users")


def test_round_queries_reject_zero_a():
    with pytest.raises(ValueError):
        engine_round_queries("cc", a=0, b=1, p=101)


def run_exported_skeleton(execute, p: int = MERSENNE_31, seed: int = 0) -> None:
    """Drive the exported Figure-3 queries over a loaded ``edges(v1, v2)``
    through ``execute(sql)``, which returns a SELECT's rows."""
    rng = random.Random(seed)
    execute(
        "create table cc_e as select v1, v2 from edges "
        "union all select v2, v1 from edges distributed by (v1)"
    )
    first_round = True
    while True:
        a = rng.randrange(1, p)
        b = rng.randrange(0, p)
        queries = engine_round_queries("cc_", a, b, p)
        execute(queries["representatives"])
        execute(queries["contract"])
        row_count = execute("select count(*) from cc_t")[0][0]
        execute("drop table cc_e")
        execute("alter table cc_t rename to cc_e")
        if first_round:
            first_round = False
            execute("alter table cc_r rename to cc_l")
        else:
            execute(queries["compose"])
            execute("drop table cc_l, cc_r")
            execute("alter table cc_t rename to cc_l")
        if row_count == 0:
            break
    execute("alter table cc_l rename to ccresult")
    execute("drop table cc_e")


def run_on_our_engine(db: Database, edges: EdgeList, seed: int) -> None:
    load_edges_into(db, "edges", edges)

    def execute(sql: str):
        result = db.execute(sql)
        return result.rows() if sql.startswith("select") else None

    run_exported_skeleton(execute, seed=seed)


def test_exported_queries_run_on_our_engine():
    edges = gnm_random_graph(80, 120, np.random.default_rng(3))
    db = Database()
    run_on_our_engine(db, edges, seed=5)
    table = db.table("ccresult")
    vertices = table.column("v").values
    labels = table.column("rep").values
    report = validate_labelling(edges, vertices, labels)
    assert report.valid, report.reason


def test_exported_queries_handle_loops_and_multiple_components():
    edges = EdgeList.from_pairs([(1, 2), (2, 3), (10, 11), (42, 42)])
    db = Database()
    run_on_our_engine(db, edges, seed=1)
    table = db.table("ccresult")
    report = validate_labelling(
        edges, table.column("v").values, table.column("rep").values
    )
    assert report.valid, report.reason


def test_exported_queries_run_on_an_engine_that_is_not_ours():
    """Figure 3, GF(p) variant, on stdlib sqlite3 (``distributed by``
    stripped, ``least`` registered): the exported round queries are SQL a
    stock database executes, and the partition is union-find's."""
    edges = gnm_random_graph(400, 300, np.random.default_rng(3))
    oracle = SqliteOracle()
    oracle.load("edges", ["v1", "v2"],
                list(zip(edges.src.tolist(), edges.dst.tolist())))
    run_exported_skeleton(oracle.execute, seed=5)
    groups: dict[int, list[int]] = {}
    for vertex, label in oracle.table_rows("ccresult"):
        groups.setdefault(label, []).append(vertex)
    oracle.close()
    truth: dict[int, list[int]] = {}
    for vertex, label in unionfind_labels(edges).items():
        truth.setdefault(label, []).append(vertex)
    assert len(truth) > 1  # several components
    assert sorted(sorted(members) for members in groups.values()) == \
        sorted(sorted(members) for members in truth.values())
