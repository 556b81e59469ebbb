"""The engine's working memory against the paper's space account.

The paper's space claims are about stored tables, and ``peak_live_bytes``
reproduces that account.  The engine's transient arrays — a join's row
maps, a DISTINCT's packed words, a GROUP BY's order — sit on top of it.
numpy reports its buffers to :mod:`tracemalloc`, so what a run allocates
beyond its tables is a count, not a timing: each case runs Randomised
Contraction once to warm the database (plans, the edge table's joint
encoding), then traces a second run and holds

    input table bytes + traced peak <= k * peak_live_bytes

with ``k`` per graph and variant.  The input table is loaded before the
trace starts, so its bytes are added back.  Each ``k`` is the ratio
measured once the fused join→DISTINCT ran in blocks of chain rows and
``encode_values`` wrote its rank into the sorted values' buffer, plus
5%.  The history, fast / deterministic-space: before the DISTINCT
compressed its words by mask and sorted 32-bit words, gnm 1.523 / 1.892,
path 1.323 / 1.786, dense 1.394 / 2.534; after, with no blocks, gnm
1.241 / 1.579, path 1.323 / 1.786, dense 1.039 / 1.969; with blocks,
before the encoder's change, path 1.196 / 1.436 (the bounds were those
plus 5%).  A bound is lowered as the engine's temporaries shrink,
never raised to pass.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from repro.core import RandomisedContraction
from repro.graphs import gnm_random_graph, path_graph
from repro.graphs.io import load_edges_into
from repro.sqlengine import Database

GRAPHS = {
    "gnm": lambda: gnm_random_graph(20_000, 40_000,
                                    np.random.default_rng(11)),
    "path": lambda: path_graph(20_000),
    "dense": lambda: gnm_random_graph(1_500, 45_000,
                                      np.random.default_rng(12)),
}

#: (graph, variant) -> k: the measured ratio plus 5% (fast / deterministic-
#: space: gnm 1.017 / 1.309, path 1.116 / 1.420, dense 0.832 / 1.381).
BOUND = {
    ("gnm", "fast"): 1.068,
    ("gnm", "deterministic-space"): 1.375,
    ("path", "fast"): 1.172,
    ("path", "deterministic-space"): 1.491,
    ("dense", "fast"): 0.873,
    ("dense", "deterministic-space"): 1.450,
}


def working_memory_ratio(graph: str, variant: str) -> float:
    """``(input table bytes + traced peak) / peak_live_bytes`` of a warm
    Randomised Contraction run."""
    edges = GRAPHS[graph]()
    algorithm = RandomisedContraction(variant=variant)
    with Database() as db:
        load_edges_into(db, "edges", edges)
        algorithm.run(db, "edges", seed=5)
        gc.collect()
        tracemalloc.start()
        try:
            run = algorithm.run(db, "edges", seed=5)
            _, traced_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        input_bytes = db.table("edges").byte_size()
    return (input_bytes + traced_peak) / run.stats.peak_live_bytes


@pytest.mark.parametrize("graph, variant", sorted(BOUND))
def test_working_memory_stays_within_its_bound(graph, variant):
    ratio = working_memory_ratio(graph, variant)
    assert ratio <= BOUND[graph, variant], (graph, variant, round(ratio, 3))
