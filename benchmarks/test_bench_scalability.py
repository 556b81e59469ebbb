"""E-SC — Section VII-B scalability: the Candels series.

"The sequence of Candels datasets, roughly doubling in size from one to
the next, demonstrates the scalability of the Randomised Contraction
algorithm.  Its runtime is essentially linear in the size of the graph."

This bench runs RC over the five-series and fits time ~ size^alpha.  The
fitted runtime exponent is *reported* (``benchmarks/results/
scalability.txt``); what is asserted is what the runtime is made of and a
busy machine cannot move: bytes written and bytes moved grow linearly in
|E|, and the round count grows by a constant per doubling.
"""

import math

from repro.analysis import quasi_linearity_exponent

from .conftest import emit

SERIES = ["candels10", "candels20", "candels40", "candels80", "candels160"]


def test_candels_scaling_is_quasi_linear(benchmark, harness):
    def run_series():
        measurements = []
        for name in SERIES:
            outcome = harness.run_once(name, "rc", seed_offset=3)
            assert outcome.ok
            measurements.append((name, harness.dataset(name).n_edges,
                                 outcome))
        return measurements

    measurements = benchmark.pedantic(run_series, rounds=1, iterations=1)
    sizes = [m[1] for m in measurements]
    outcomes = [m[2] for m in measurements]
    alpha = quasi_linearity_exponent(sizes, [o.seconds for o in outcomes])
    written = quasi_linearity_exponent(
        sizes, [o.written_bytes for o in outcomes])
    moved = quasi_linearity_exponent(
        sizes, [o.motion_bytes for o in outcomes])
    # Linear work: the bytes every statement writes and moves, summed over
    # the run, scale with |E| (small inputs are broadcast, not
    # redistributed, so motion may start below linear) ...
    assert 0.9 < written < 1.1, written
    assert moved < 1.1, moved
    # ... over O(log |V|) rounds: a constant number more per doubling.
    doublings = math.log2(sizes[-1] / sizes[0])
    assert outcomes[-1].rounds - outcomes[0].rounds <= 2 * doublings

    lines = ["SECTION VII-B - CANDELS SCALABILITY (Randomised Contraction)",
             "", f"fitted runtime ~ |E|^{alpha:.2f}  (paper: essentially linear)",
             f"bytes written  ~ |E|^{written:.2f}   bytes moved ~ "
             f"|E|^{moved:.2f}", ""]
    for name, n_edges, outcome in measurements:
        lines.append(f"  {name:12s} |E|={n_edges:>9,d}  "
                     f"{outcome.seconds:7.2f}s  rounds={outcome.rounds}  "
                     f"statements={outcome.sql_queries}")
    emit("scalability", "\n".join(lines))
