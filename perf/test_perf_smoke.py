"""Smoke test of the benchmark itself: every workload at 1% scale with two
reps per pass.  No timing asserts — only schema, correctness and the span
identity."""

from __future__ import annotations

import json

import pytest

from perf import bench, run

WORKLOAD_NAMES = [w["name"] for w in run.SPEC["workloads"]]


def test_workload_table_matches_benchmark_json():
    assert list(bench.WORKLOADS) == WORKLOAD_NAMES


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_workload_smoke(workload, tmp_path):
    passes = {
        trace: bench.run_workload(workload, run.DEFAULT_SEED, seconds=0.0,
                                  trace=bool(trace), scale=0.01, reps=2,
                                  out_dir=tmp_path)
        for trace in (0, 1)
    }
    for trace, result in passes.items():
        assert result["failed"] == 0 and not result["errors"]
        assert result["attempted"] == 2 * (1 + trace)
        # with_units raises KeyError on a metric the pass did not produce.
        assert len(run.with_units(result["metrics"], trace)) \
            == len(result["metrics"])
    assert all(value > 0 for value in passes[0]["metrics"].values())

    layers = passes[1]["metrics"]
    # The driver refuses a result line that holds a null.
    assert all(isinstance(value, (int, float)) for value in layers.values())
    statements = sum(value for name, value in layers.items()
                     if name.startswith("rc.stmt_"))
    assert statements + layers["rc.driver_other_s"] - layers["rc.overlap_s"] \
        == pytest.approx(layers["rc.traced_wall_s"], rel=0.01)

    events = json.loads(
        (tmp_path / f"trace_{workload}.json").read_text())["traceEvents"]
    roots = {e["args"]["span_id"] for e in events if e["cat"] == "run"}
    assert len(roots) == 2
    assert {e["args"]["parent"] for e in events
            if e["cat"] == "statement"} == roots
