"""Time and memory of generating one graph, apart from any engine work.

``python3 scripts/graph_cost.py [--n N] [--m M] [--seed S]``
    generates G(N, M) (default G(2M, 4M), the rung above the committed
    ladder) with ``np.random.default_rng(S)`` in this process and prints
    one JSON line: the edge count, the wall seconds of the generator, the
    process's peak RSS in MB (``ru_maxrss``, Linux), and the sha256 of
    ``src.tobytes() + dst.tobytes()`` — which must not change from commit
    to commit for a fixed seed.

``--rmat SCALE`` generates ``rmat_graph(SCALE, M, rng)`` instead.

Run it as its own process: the peak is the whole process's, interpreter
and numpy included, so nothing else may have run in it first.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.graphs.generators import gnm_random_graph, rmat_graph  # noqa: E402


def _peak_rss_mb() -> float:
    """The process's peak resident set so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--n", type=int, default=2_000_000)
    parser.add_argument("--m", type=int, default=4_000_000)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--rmat", type=int, default=None, metavar="SCALE")
    args = parser.parse_args()
    rng = np.random.default_rng(args.seed)
    before_mb = _peak_rss_mb()
    started = time.perf_counter()
    if args.rmat is None:
        edges = gnm_random_graph(args.n, args.m, rng)
    else:
        edges = rmat_graph(args.rmat, args.m, rng)
    seconds = time.perf_counter() - started
    digest = hashlib.sha256(edges.src.tobytes() + edges.dst.tobytes())
    print(json.dumps({
        "graph": (f"rmat({args.rmat}, {args.m})" if args.rmat is not None
                  else f"gnm({args.n}, {args.m})"),
        "seed": args.seed,
        "edges": edges.n_edges,
        "seconds": round(seconds, 3),
        "peak_rss_mb": round(_peak_rss_mb(), 1),
        "rss_before_mb": round(before_mb, 1),
        "sha256": digest.hexdigest(),
    }))


if __name__ == "__main__":
    main()
