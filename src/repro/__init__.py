"""Reproduction of "In-database connected component analysis" (ICDE 2020).

The package layers, bottom to top:

* :mod:`repro.ff` — finite fields GF(2^64)/GF(p), Blowfish, and the
  randomisation methods of Section V-C;
* :mod:`repro.sqlengine` — an in-process, MPP-simulating SQL engine (the
  substitute for the paper's Apache HAWQ cluster) with full accounting of
  rows/bytes written, peak space and data motion;
* :mod:`repro.spark` — a shuffle-everything, per-task, index-less backend
  standing in for Spark SQL (Section VII-C);
* :mod:`repro.graphs` — edge-list containers and the synthetic dataset
  generators reproducing the roles of Table II;
* :mod:`repro.core` — Randomised Contraction plus the Hash-to-Min,
  Two-Phase, Cracker and BFS baselines, all expressed as SQL against the
  engine, with a union-find ground truth;
* :mod:`repro.analysis` and :mod:`repro.bench` — Figure-5 analysis and the
  harness regenerating every table and figure of the evaluation.

The one-call public API is :func:`repro.connected_components`.
"""

from .core.runner import ALGORITHMS, CCResult, connected_components

__version__ = "1.0.0"

__all__ = ["ALGORITHMS", "CCResult", "connected_components", "__version__"]
