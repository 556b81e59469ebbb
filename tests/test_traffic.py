"""Every engine counter and every join route must see traffic from a
reproduced algorithm.

A counter marks a code path; a path no algorithm of the reproduction
reaches is a configuration the fuzz harness, the benchmarks and every
later executor change keep alive for nothing.  This test runs every
algorithm configuration the repo ships on two small graphs, with
``Database()`` at its defaults — and the contraction once more on the
Spark model's ``SparkSQLDatabase()`` — and requires each name in
``stats.COUNTERS`` to be non-zero in at least one run — except the
allow-list below, one reason per name, and ``stats.RETIRED``, the
counters of removed machinery, which no run may move at all.  A new fast
path therefore lands together with an algorithm that reaches it, or with
a reason here.

No counter says which join kernel ran.  The *route* registry does: every
note ``operators.JOIN_ROUTES`` lets the join planner report must be
reached by the runs above too, or sit in its own allow-list.  No counter
says which branch of the one DISTINCT kernel ran either; a spy does, and
every branch must be reached the same way.  No check depends on the
host: the engine starts no thread, so every host sees the same counters,
notes and branches.

No counter says how many values the contraction's UDF saw either: a spy
on the GF(2^64) map does, and holds each round to one evaluation of h per
live vertex and each composition to h over its null-extended rows only.
"""

import hashlib
import importlib.util
import re
from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    ALGORITHMS,
    BreadthFirstSearchCC,
    GraphSquaringCC,
    HashToMin,
    RandomisedContraction,
)
from repro.graphs import (
    EdgeList,
    gnm_random_graph,
    load_edges_into,
    path_graph,
)
from repro.ff.gf2_64 import Gf2AffineMap
from repro.sqlengine import Database, stats
from repro.sqlengine import executor as executor_module
from repro.sqlengine.operators import JOIN_ROUTES
from repro.spark import SparkSQLDatabase

from .distinct_reference import BRANCHES, record_branches

#: Counters no default-configuration run on these graphs can move.
NO_TRAFFIC_EXPECTED = {
    "physical_plan_invalidations":
        "safety counter: a cached plan failing its schema/binding check",
}


#: Join-route notes no default-configuration run reaches.
NO_ROUTE_TRAFFIC_EXPECTED = {
    "empty":
        "guard for a side without a non-NULL key: the drivers stop before "
        "joining an empty edge table (tests/test_empty_inputs.py)",
}


#: DISTINCT branches no default-configuration run reaches.
NO_BRANCH_TRAFFIC_EXPECTED = {
    "grouped":
        "NULL, float and text keys, and integer keys too wide to pack: "
        "every reproduced algorithm DISTINCTs NULL-free int64 columns, "
        "which pack (tests/test_operators.py and the differential fuzz "
        "reach it)",
}


#: The counters :data:`GOLDEN` pins per configuration: the paper's axes.
GOLDEN_COUNTERS = ("queries", "rows_written", "bytes_written", "motion_bytes",
                   "broadcast_bytes", "peak_live_bytes")

#: Per configuration: ``GOLDEN_COUNTERS`` and the label digest, as
#: :func:`_run_everything` records them.  Recorded at commit ``3460619``;
#: a change that moves one changes what a run computes or charges.
GOLDEN = {
    'BreadthFirstSearchCC/gnm': (40, 46000, 736000, 3648000, 0, 377600, '87e872f99d71b8dc'),
    'Cracker/gnm': (39, 83743, 1310864, 3156880, 1344448, 752184, '87e872f99d71b8dc'),
    'Cracker/path': (118, 4169890, 66602520, 159758088, 2405152, 22095064, 'ee2047cfe6b1cd39'),
    'GraphSquaringCC/gnm-small': (18, 61851, 989616, 82697408, 494720, 636480, '92bae4bd53e2dcee'),
    'GraphSquaringCC/path-small': (33, 99697, 1595152, 143820480, 470784, 717584, 'f0c062ca2fb0d021'),
    'HashToMin/gnm': (28, 133184, 2130944, 5368864, 0, 1007632, '87e872f99d71b8dc'),
    'RandomisedContraction/gnm': (81, 71214, 1139424, 1735456, 406784, 524800, '421a0d5223ca2e3d'),
    'RandomisedContraction/gnm-sparse-ids': (73, 70860, 1133760, 1718736, 395072, 524800, '795dd66f01deb30b'),
    'RandomisedContraction/path': (81, 19180, 306880, 609456, 373824, 143920, 'f90e32ba4a3b33d3'),
    'TwoPhase/gnm': (50, 84682, 1332512, 4937120, 2162304, 354976, '87e872f99d71b8dc'),
    'TwoPhase/path': (125, 79474, 1259584, 10085280, 9497664, 107968, 'ee2047cfe6b1cd39'),
    'rc-deterministic-space/gnm': (71, 63808, 1020928, 3452128, 1826304, 471840, '421a0d5223ca2e3d'),
    'rc-deterministic-space/gnm-sparse-ids': (64, 60831, 973296, 3205280, 1628544, 473472, '795dd66f01deb30b'),
    'rc-deterministic-space/path': (71, 23841, 381456, 1736000, 1425792, 119984, 'f90e32ba4a3b33d3'),
    'rc-encryption/gnm': (71, 64275, 1028400, 3487808, 1846912, 471168, 'fd5abf073f9c091f'),
    'rc-encryption/path': (78, 25546, 408736, 1875584, 1539200, 120016, 'ab4c72087f3a05e3'),
    'rc-random-reals/gnm': (80, 71576, 1145216, 4877888, 2452736, 606336, 'b6b77ac1c8af7803'),
    'rc-random-reals/path': (110, 34267, 548272, 3231824, 2849856, 191568, '2f75ff06a33a4210'),
    'rc-spark/gnm': (81, 71214, 1139424, 2579776, 98048, 524800, '421a0d5223ca2e3d'),
}


def _configurations():
    random_graph = gnm_random_graph(3000, 6000, np.random.default_rng(7))
    path = path_graph(1500)
    both = {"gnm": random_graph, "path": path}
    # Vertex ids far apart: the doubled edge table's joint encoding takes
    # its sorting path, not its presence mask.  The graph is one
    # component, so the deterministic-space composition matches every row
    # and every RC join is on codes.
    sparse_ids = EdgeList(random_graph.src * 1_000_003 + 2 ** 40,
                          random_graph.dst * 1_000_003 + 2 ** 40)
    configs = {cls.__name__: cls for cls in set(ALGORITHMS.values())}
    # The Spark model stores and reads the same encoded columns; its
    # kernels run task by task over them.
    yield "rc-spark/gnm", RandomisedContraction, random_graph, \
        SparkSQLDatabase
    configs.update({
        "rc-deterministic-space": lambda: RandomisedContraction(
            variant="deterministic-space"),
        "rc-encryption": lambda: RandomisedContraction(
            method="encryption", variant="deterministic-space"),
        "rc-random-reals": lambda: RandomisedContraction(
            method="random-reals", variant="deterministic-space"),
    })
    for name, factory in sorted(configs.items()):
        if factory is GraphSquaringCC:
            # Quadratic space by design (36 GiB at 30k vertices).
            graphs = {
                "gnm-small": gnm_random_graph(150, 300,
                                              np.random.default_rng(7)),
                "path-small": path_graph(150),
            }
        elif factory in (BreadthFirstSearchCC, HashToMin):
            # Quadratic on a path by design.
            graphs = {"gnm": random_graph}
        elif name in ("RandomisedContraction", "rc-deterministic-space"):
            graphs = {**both, "gnm-sparse-ids": sparse_ids}
        else:
            graphs = both
        for graph_name, edges in graphs.items():
            yield f"{name}/{graph_name}", factory, edges, Database


def _label_digest(vertices: np.ndarray, labels: np.ndarray) -> str:
    """sha256 of a run's (vertex, label) pairs sorted by vertex, first 16
    hex digits."""
    order = np.argsort(vertices, kind="stable")
    pairs = np.stack([vertices[order], labels[order]], axis=1)
    return hashlib.sha256(np.ascontiguousarray(pairs).tobytes()).hexdigest()[:16]


def _run_everything(monkeypatch) -> tuple[set, set, dict, dict]:
    """Run every configuration on a default ``Database()``; returns the
    counters that moved, the join-route notes reported, the DISTINCT
    branches each run took, and each run's :data:`GOLDEN` figures."""
    notes: set[str] = set()
    branches: dict[str, set] = {}
    golden: dict[str, tuple] = {}
    taken = record_branches(monkeypatch)
    dispatch_join = executor_module.Executor._dispatch_join

    def recording_dispatch(self, *args):
        pair = dispatch_join(self, *args)
        notes.add(args[-1][-1])
        return pair

    monkeypatch.setattr(executor_module.Executor, "_dispatch_join",
                        recording_dispatch)
    moved: set[str] = set()
    for run_name, factory, edges, database in _configurations():
        taken.clear()
        with database() as db:
            load_edges_into(db, "edges", edges)
            result = factory().run(db, "edges", seed=5)
            assert result.n_labelled > 0, run_name
            snapshot = db.stats.snapshot()
            digest = _label_digest(*result.labels(db))
        moved.update(name for name in stats.COUNTERS
                     if getattr(snapshot, name))
        branches[run_name] = set(taken)
        golden[run_name] = tuple(
            getattr(snapshot, name) for name in GOLDEN_COUNTERS) + (digest,)
    return moved, notes, branches, golden


@pytest.fixture(scope="module")
def default_traffic():
    with pytest.MonkeyPatch.context() as monkeypatch:
        return _run_everything(monkeypatch)


def test_every_counter_sees_traffic_from_some_algorithm(default_traffic):
    assert set(NO_TRAFFIC_EXPECTED) <= set(stats.COUNTERS)
    assert stats.RETIRED <= set(stats.COUNTERS)
    assert not stats.RETIRED & set(NO_TRAFFIC_EXPECTED)
    assert all(NO_TRAFFIC_EXPECTED.values())  # one reason per name
    seen, _, _, _ = default_traffic
    assert seen & stats.RETIRED == set(), "a retired counter moved"
    allowed = set(NO_TRAFFIC_EXPECTED) | stats.RETIRED
    assert set(stats.COUNTERS) - seen - allowed == set(), (
        "counters no algorithm reaches: delete the path or list a reason")
    # An allow-list entry some algorithm does move is stale.
    assert seen & set(NO_TRAFFIC_EXPECTED) == set()


def test_count_metrics_and_labels_match_the_golden_runs(default_traffic):
    """Every configuration writes, moves and holds the bytes, and labels
    the vertices, it did when :data:`GOLDEN` was recorded: motion is
    charged from each core's compiled distribution (a CTAS's
    redistribution, a DISTINCT's or GROUP BY's co-location), so a plan
    that mis-names one moves these figures."""
    _, _, _, golden = default_traffic
    assert set(golden) == set(GOLDEN)
    mismatched = {name: (golden[name], GOLDEN[name]) for name in GOLDEN
                  if golden[name] != GOLDEN[name]}
    assert not mismatched, mismatched


def test_every_join_route_is_reached_by_some_algorithm(default_traffic):
    notes = set(JOIN_ROUTES.values())
    assert set(NO_ROUTE_TRAFFIC_EXPECTED) <= notes
    assert all(NO_ROUTE_TRAFFIC_EXPECTED.values())  # one reason per name
    _, seen, _, _ = default_traffic
    # The planner reports nothing outside its registry ...
    assert seen <= notes
    # ... and nothing in it goes unused without a stated reason.
    assert notes - seen - set(NO_ROUTE_TRAFFIC_EXPECTED) == set(), (
        "join routes no algorithm reaches: delete the route or list a reason")
    # An allow-list entry some algorithm does reach is stale.
    assert seen & set(NO_ROUTE_TRAFFIC_EXPECTED) == set()


def test_tableless_routes_are_reached_without_an_allow_list_entry(
        default_traffic):
    """Each round's ``reps.v`` on the path fills its key domain — the
    dictionary of its codes — so the default runs reach the route that
    skips the direct-address table."""
    _, seen, _, _ = default_traffic
    assert JOIN_ROUTES["dense-offset"] in seen
    assert JOIN_ROUTES["dense-offset"] not in NO_ROUTE_TRAFFIC_EXPECTED


def test_every_distinct_branch_is_reached_by_some_algorithm(
        default_traffic):
    """Codes pack in every RC variant's contraction, the Spark model's
    included, and plain offsets in the baselines' DISTINCTs; every other
    branch has a stated reason."""
    _, _, branches, _ = default_traffic
    assert set(NO_BRANCH_TRAFFIC_EXPECTED) <= set(BRANCHES)
    assert all(NO_BRANCH_TRAFFIC_EXPECTED.values())  # one reason per name
    seen = set().union(*branches.values())
    assert seen <= set(BRANCHES)
    assert set(BRANCHES) - seen - set(NO_BRANCH_TRAFFIC_EXPECTED) == set(), (
        "DISTINCT branches no algorithm reaches: delete the branch or list "
        "a reason")
    assert seen & set(NO_BRANCH_TRAFFIC_EXPECTED) == set()
    rc_runs = [name for name in branches
               if name.startswith(("RandomisedContraction/", "rc-"))]
    assert "rc-spark/gnm" in rc_runs
    assert all("packed-codes" in branches[name] for name in rc_runs)


#: G(70k, 140k): the spied fast-variant run's graph size.
SPIED_VERTICES = 70_000


@pytest.fixture(scope="module")
def spied_fast_run():
    """A default fast RC run on G(70k, 140k) with a spy on the GF(2^64)
    map: ``passed`` lists ``(statement number, values)`` per call of h,
    ``chosen`` maps each ``reps`` statement to the distinct
    representatives it chose, and ``null_extended`` each ``compose``
    statement to its LEFT JOIN's null-extended rows, counted from the two
    input tables before the statement runs."""
    statement = {"number": 0}
    passed: list[tuple[int, int]] = []
    chosen: dict[int, int] = {}
    null_extended: dict[int, int] = {}
    apply = Gf2AffineMap.apply
    execute = Database.execute

    def spy_apply(self, x):
        passed.append((statement["number"], int(x.shape[0])))
        return apply(self, x)

    def numbered_execute(self, sql, label=""):
        statement["number"] += 1
        number = statement["number"]
        if label.endswith(":compose"):
            lower = re.search(r"from (\w+) as r1", sql).group(1)
            upper = re.search(r"join (\w+) as r2", sql).group(1)
            null_extended[number] = int(np.count_nonzero(~np.isin(
                self.table(lower).column("rep").values,
                self.table(upper).column("v").values)))
        result = execute(self, sql, label=label)
        if label.endswith(":reps"):
            reps = re.search(r"create table (\w+)", sql).group(1)
            chosen[number] = int(np.unique(
                self.table(reps).column("rep").values).shape[0])
        return result

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(Gf2AffineMap, "apply", spy_apply)
        monkeypatch.setattr(Database, "execute", numbered_execute)
        with Database() as db:
            load_edges_into(db, "edges", gnm_random_graph(
                SPIED_VERTICES, 2 * SPIED_VERTICES,
                np.random.default_rng(3)))
            RandomisedContraction().run(db, "edges", seed=11)
    return {"passed": passed, "chosen": chosen,
            "null_extended": null_extended}


def test_each_round_evaluates_h_once_per_live_vertex(spied_fast_run):
    """``least(h(v1), min(h(v2)))`` over the doubled edge table passes h
    each of its round's live vertices at most once — |V| in round 1, the
    representatives round k - 1 chose after — because the aggregate's
    call runs over the dictionary of ``v2``'s codes (round 1's vertex
    dictionary, a later round's of those representatives) and the call
    over the group keys ``v1`` reuses that evaluation instead of calling
    again."""
    passed, chosen = spied_fast_run["passed"], spied_fast_run["chosen"]
    rounds = sorted(chosen)
    assert len(rounds) > 3
    assert passed[0][0] == rounds[0] and passed[0][1] <= SPIED_VERTICES
    live = [SPIED_VERTICES] + [chosen[number] for number in rounds[:-1]]
    for number, vertices in zip(rounds, live):
        values = sum(rows for at, rows in passed if at == number)
        assert 0 < values <= vertices, (number, values, vertices)


def test_composition_applies_h_only_to_null_extended_rows(spied_fast_run):
    """The back-to-front composition ``coalesce(r2.rep, axplusb(acc_a,
    r1.rep, acc_b))`` needs its affine fallback only where ``r2.rep`` is
    NULL — a representative that left the graph.  COALESCE short-circuits,
    so h sees those rows and no other: an eager COALESCE would pass it
    every label row of every composition."""
    passed = spied_fast_run["passed"]
    null_extended = spied_fast_run["null_extended"]
    assert len(null_extended) > 2
    for number, extended in null_extended.items():
        values = sum(rows for at, rows in passed if at == number)
        assert values <= extended, (number, values, extended)


def test_key_forms_script_reports_one_configuration():
    """``scripts/key_forms.py``'s spies on the contraction over a path:
    every join on codes with no table, off a cached build index, every
    DISTINCT a block loop packing codes into 32-bit words at the
    positions its WHERE kept (a path's contract keeps about half its
    rows), every GROUP BY on codes — round 1's by address, every later
    one's in the runs its sorted key arrives in — and h evaluated over a
    dictionary.  On the Spark model every key is codes too, run through
    its partitioned kernels, which read no index and run no block loop:
    every DISTINCT packs all the rows it is handed — a filtered frame,
    task by task, then the merge of every task's rows."""
    spec = importlib.util.spec_from_file_location(
        "key_forms",
        Path(__file__).resolve().parent.parent / "scripts" / "key_forms.py")
    key_forms = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(key_forms)
    configs = {config[0]: config[1:] for config in _configurations()
               if config[0] in ("RandomisedContraction/path", "rc-spark/gnm")}
    seen = key_forms.run(*configs["RandomisedContraction/path"])
    assert {(op, forms, route) for op, forms, route in seen} == {
        ("join", "codes = codes", "offset idx"),
        ("distinct", "codes+codes", "packed-codes 32 positions"),
        ("group", "codes", "direct"),
        ("group", "codes", "runs"),
        ("udf", "dictionary", ""),
    }
    report = key_forms.report("RandomisedContraction/path",
                              seen).splitlines()
    assert report[0] == "RandomisedContraction/path" and len(report) == 6
    spark = key_forms.run(*configs["rc-spark/gnm"])
    assert {(op, forms, route) for op, forms, route in spark} == {
        ("join", "codes = codes", "spark-partitioned -"),
        ("distinct", "codes+codes", "packed-codes 32 all"),
        ("group", "codes", "partitioned"),
        ("udf", "dictionary", ""),
    }
