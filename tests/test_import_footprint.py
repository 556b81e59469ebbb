"""The import closure of a labelling process: no scipy.

scipy serves only the ground truth (``unionfind.ground_truth_labels``
imports it on its first call).  A process that only labels a graph must
never load it: ``scipy.sparse`` adds ~25 MB of resident memory, which
``perf/``'s ``peak_rss_mb`` would count as the engine's.  Each check runs
in a fresh interpreter, since this test process has loaded scipy long
before (networkx, the ground-truth tests).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core import count_components, unionfind_labels, validate_labelling
from repro.graphs import EdgeList

SRC = str(Path(repro.__file__).resolve().parents[1])

PAIRS = [(1, 5), (1, 10), (2, 4), (2, 9), (3, 8), (3, 10), (4, 9),
         (5, 6), (5, 7), (6, 10), (12, 12), (20, 21)]


def run_fresh(script: str, payload=None):
    """Run ``script`` in a new interpreter with ``src/`` on its path, with
    ``payload`` as its JSON stdin; returns the JSON its last stdout line
    holds."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          input=json.dumps(payload), capture_output=True,
                          text=True, timeout=120, check=False)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


LABEL_THEN_GROUND_TRUTH = """
import json, sys

import numpy as np

import repro, repro.cli, repro.core, repro.graphs, repro.sqlengine
from repro import connected_components
from repro.core import RandomisedContraction, UnionFind
from repro.core.unionfind import ground_truth_labels
from repro.graphs import gnm_random_graph


def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")


edges = gnm_random_graph(300, 400, np.random.default_rng(5))
components = []
for variant in ("fast", "deterministic-space"):
    result = connected_components(
        edges, RandomisedContraction(variant=variant), seed=3)
    components.append(result.n_components)
loaded_by_labelling = scipy_modules()

vertices, labels = ground_truth_labels(edges)
uf = UnionFind()
for a, b in zip(edges.src.tolist(), edges.dst.tolist()):
    uf.union(a, b)
print(json.dumps({
    "loaded_by_labelling": loaded_by_labelling,
    "components": components,
    "truth_components": len(set(labels.tolist())),
    "truth_matches_unionfind":
        dict(zip(vertices.tolist(), labels.tolist())) == uf.labels(),
    "loaded_by_ground_truth": "scipy.sparse.csgraph" in sys.modules,
}))
"""


def test_labelling_loads_no_scipy_and_the_ground_truth_loads_it_on_call():
    out = run_fresh(LABEL_THEN_GROUND_TRUTH)
    assert out["loaded_by_labelling"] == []
    assert out["components"] == [out["truth_components"]] * 2
    assert out["truth_matches_unionfind"]
    assert out["loaded_by_ground_truth"]


GROUND_TRUTH_FIRST = """
import json, sys

import numpy as np

from repro.core import count_components, validate_labelling
from repro.graphs import EdgeList

payload = json.load(sys.stdin)
edges = EdgeList.from_pairs([tuple(p) for p in payload["pairs"]])
count = count_components(edges)
report = validate_labelling(edges, np.array(payload["vertices"], dtype=np.int64),
                            np.array(payload["labels"], dtype=np.int64))
print(json.dumps({"count": count, "report": vars(report)}))
"""


@pytest.mark.parametrize("pairs", [PAIRS, []], ids=["edges", "empty"])
def test_ground_truth_as_first_engine_call_matches_in_process(pairs):
    edges = EdgeList.from_pairs(pairs)
    by_vertex = unionfind_labels(edges)
    vertices = sorted(by_vertex)
    labels = [by_vertex[v] for v in vertices]
    out = run_fresh(GROUND_TRUTH_FIRST, {"pairs": pairs, "vertices": vertices,
                                         "labels": labels})
    report = validate_labelling(edges, vertices, labels)
    assert report.valid
    assert out == {"count": count_components(edges), "report": vars(report)}
