"""Every engine counter must see traffic from a reproduced algorithm.

A counter marks a code path; a path no algorithm of the reproduction
reaches is a configuration the fuzz harness, the benchmarks and every
later executor change keep alive for nothing.  This test runs every
algorithm configuration the repo ships on two small graphs, with
``Database()`` at its defaults, and requires each name in
``stats.COUNTERS`` to be non-zero in at least one run — except the
allow-list below, one reason per name.  A new fast path therefore lands
together with an algorithm that reaches it, or with a reason here.
"""

import numpy as np

from repro.core import (
    ALGORITHMS,
    BreadthFirstSearchCC,
    GraphSquaringCC,
    HashToMin,
    RandomisedContraction,
)
from repro.graphs import gnm_random_graph, load_edges_into, path_graph
from repro.sqlengine import Database, stats

#: Counters no default-configuration run on these graphs can move.
NO_TRAFFIC_EXPECTED = {
    "process_tasks": "process backend only (pool_backend='process')",
    "shm_bytes_exported": "process backend only (pool_backend='process')",
    "stats_merges": "process backend only (pool_backend='process')",
    "physical_plan_invalidations":
        "safety counter: a cached plan failing its schema/binding check",
    "parallel_indexed_probes":
        "size-gated (PARALLEL_MIN_ROWS sparse-key probes); the perf/ "
        "traces show it on gnm_1m",
}

#: Counters that need two pool workers; a one-CPU host's default pool has
#: a single worker and keeps every kernel and statement group inline.
NEEDS_TWO_WORKERS = {
    "parallel_partitions",
    "parallel_dense_probes",
    "overlapped_compositions",
    "dataflow_overlaps",
}


def _configurations():
    random_graph = gnm_random_graph(3000, 6000, np.random.default_rng(7))
    path = path_graph(1500)
    both = {"gnm": random_graph, "path": path}
    configs = {cls.__name__: cls for cls in set(ALGORITHMS.values())}
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
        else:
            graphs = both
        for graph_name, edges in graphs.items():
            yield f"{name}/{graph_name}", factory, edges


def test_every_counter_sees_traffic_from_some_algorithm():
    assert set(NO_TRAFFIC_EXPECTED) <= set(stats.COUNTERS)
    assert all(NO_TRAFFIC_EXPECTED.values())  # one reason per name
    seen: set[str] = set()
    for run_name, factory, edges in _configurations():
        with Database() as db:
            load_edges_into(db, "edges", edges)
            result = factory().run(db, "edges", seed=5)
            assert result.n_labelled > 0, run_name
            snapshot = db.stats.snapshot()
            workers = db.pool.n_workers
        seen.update(name for name in stats.COUNTERS
                    if getattr(snapshot, name))
    allowed = set(NO_TRAFFIC_EXPECTED)
    if workers < 2:
        allowed |= NEEDS_TWO_WORKERS
    assert set(stats.COUNTERS) - seen - allowed == set(), (
        "counters no algorithm reaches: delete the path or list a reason")
