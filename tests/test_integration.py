"""Cross-module integration tests: datasets -> engine -> algorithms."""

import numpy as np
import pytest

from repro import ALGORITHMS, connected_components
from repro.analysis import fit_scale_free
from repro.bench import Harness, mean_outcomes
from repro.core import make_algorithm
from repro.core.labels import validate_labelling
from repro.graphs import build_dataset
from repro.spark import SparkSQLDatabase

PAPER_ALGORITHMS = ["rc", "hm", "tp", "cr"]

DATASETS_SMALL = [
    "andromeda", "bitcoin_addresses", "bitcoin_full", "candels10",
    "friendster", "rmat", "pathunion10", "streets_of_italy",
]


@pytest.mark.parametrize("dataset", DATASETS_SMALL)
def test_rc_is_correct_on_every_dataset(dataset):
    edges = build_dataset(dataset, scale=0.02)
    result = connected_components(edges, "rc", seed=1)
    report = validate_labelling(edges, result.vertices, result.labels)
    assert report.valid, report.reason


@pytest.mark.parametrize("algorithm", PAPER_ALGORITHMS)
def test_all_algorithms_agree_on_one_dataset(algorithm):
    edges = build_dataset("bitcoin_addresses", scale=0.02)
    result = connected_components(edges, algorithm, seed=1)
    report = validate_labelling(edges, result.vertices, result.labels)
    assert report.valid, f"{algorithm}: {report.reason}"


def test_component_counts_identical_across_algorithms():
    edges = build_dataset("pathunion10", scale=0.05)
    counts = {
        algorithm: connected_components(edges, algorithm, seed=2).n_components
        for algorithm in PAPER_ALGORITHMS
    }
    assert len(set(counts.values())) == 1, counts


def test_registry_aliases_resolve():
    for name in ALGORITHMS:
        assert make_algorithm(name) is not None
    with pytest.raises(KeyError):
        make_algorithm("quantum")


def test_figure5_shapes_on_scaled_datasets():
    """Fig 5: Andromeda and Bitcoin-addresses show scale-free components."""
    for name in ("andromeda", "bitcoin_addresses"):
        edges = build_dataset(name, scale=0.1)
        fit = fit_scale_free(edges)
        assert fit.slope < -0.4, name
        assert fit.n_components > 30, name


def test_andromeda_has_giant_background_outlier():
    edges = build_dataset("andromeda", scale=0.1)
    fit = fit_scale_free(edges)
    assert fit.giant_component_size > edges.n_vertices * 0.3


def test_harness_suite_reproduces_winner_shape():
    """Table III's headline in its deterministic form: RC finishes, the
    suite reports every algorithm, the finishers agree on the components,
    and RC ships the least data between segments — the cost the paper
    credits its speed to.  (Seconds are compared where repetitions make
    them meaningful: ``benchmarks/test_bench_table3_runtimes.py``.)"""
    harness = Harness(scale=0.08)
    outcomes = mean_outcomes(harness.run_suite(
        dataset_names=["candels10"], algorithms=PAPER_ALGORITHMS, reps=1,
    ))
    by_algorithm = {o.algorithm.split("[")[0]: o for o in outcomes}
    assert set(by_algorithm) == {
        "randomised-contraction", "hash-to-min", "two-phase", "cracker"}
    rc = by_algorithm["randomised-contraction"]
    assert rc.ok
    others = [o for name, o in by_algorithm.items()
              if name != "randomised-contraction" and o.ok]
    assert len(others) >= 2
    for outcome in others:
        assert outcome.n_components == rc.n_components, outcome.algorithm
        assert rc.motion_bytes < outcome.motion_bytes, outcome.algorithm


def test_rc_writes_least_data():
    """Table V's shape: RC writes the least on image-like datasets."""
    harness = Harness(scale=0.08)
    outcomes = mean_outcomes(harness.run_suite(
        dataset_names=["candels10"], algorithms=PAPER_ALGORITHMS, reps=1,
    ))
    by_algorithm = {o.algorithm.split("[")[0]: o for o in outcomes}
    rc = by_algorithm["randomised-contraction"]
    for name, outcome in by_algorithm.items():
        if outcome.ok and name != "randomised-contraction":
            assert rc.written_bytes < outcome.written_bytes, name


def test_two_phase_uses_least_space():
    """Table IV's shape: TP has the smallest peak space."""
    harness = Harness(scale=0.08)
    outcomes = mean_outcomes(harness.run_suite(
        dataset_names=["candels10"], algorithms=PAPER_ALGORITHMS, reps=1,
    ))
    by_algorithm = {o.algorithm.split("[")[0]: o for o in outcomes}
    tp = by_algorithm["two-phase"]
    for name, outcome in by_algorithm.items():
        if outcome.ok and name != "two-phase":
            assert tp.peak_bytes <= outcome.peak_bytes, name


def test_spark_and_mpp_full_pipeline_agree():
    edges = build_dataset("streets_of_italy", scale=0.05)
    mpp = connected_components(edges, "rc", seed=3)
    spark = connected_components(edges, "rc", seed=3, db=SparkSQLDatabase())
    assert mpp.n_components == spark.n_components
    assert np.array_equal(np.sort(mpp.vertices), np.sort(spark.vertices))


def test_seeded_runs_are_fully_deterministic_end_to_end():
    edges = build_dataset("rmat", scale=0.01)
    first = connected_components(edges, "rc", seed=77)
    second = connected_components(edges, "rc", seed=77)
    assert first.run.rounds == second.run.rounds
    assert first.run.stats.bytes_written == second.run.stats.bytes_written
