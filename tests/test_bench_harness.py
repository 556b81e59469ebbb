"""Tests for the benchmark harness and the paper-table renderers."""

import pytest

from repro.bench import (
    Harness,
    mean_outcomes,
    render_figure6,
    render_table1,
    render_table2,
    render_table3,
    render_table4,
    render_table5,
)
from repro.bench.harness import RunOutcome
from repro.bench.scale import bench_reps


@pytest.fixture(scope="module")
def harness():
    return Harness(scale=0.05)


def test_dataset_cache_returns_same_object(harness):
    a = harness.dataset("path100m")
    b = harness.dataset("path100m")
    assert a is b


def test_run_once_ok(harness):
    outcome = harness.run_once("pathunion10", "rc")
    assert outcome.ok
    assert outcome.seconds > 0
    assert outcome.n_components == 10
    assert outcome.peak_bytes > outcome.input_bytes


def test_run_once_dnf_on_tight_budget(harness):
    outcome = harness.run_once(
        "path100m", "hm",
        space_budget_bytes=harness.input_bytes("path100m") * 6,
    )
    assert outcome.status == "dnf"
    assert "budget" in outcome.error


def test_budget_scales_with_largest_dataset(harness):
    budget = harness.budget_bytes(["path100m", "pathunion10"])
    largest = max(harness.input_bytes("path100m"),
                  harness.input_bytes("pathunion10"))
    assert budget == int(harness.budget_factor * largest)


def test_no_budget_when_factor_none():
    harness = Harness(scale=0.05, budget_factor=None)
    assert harness.budget_bytes(["path100m"]) is None


def test_run_suite_covers_grid(harness):
    outcomes = harness.run_suite(
        dataset_names=["pathunion10"], algorithms=["rc", "tp"], reps=2
    )
    assert len(outcomes) == 4
    pairs = {(o.dataset, o.algorithm) for o in outcomes}
    assert len(pairs) == 2


def test_mean_outcomes_averages_and_propagates_dnf():
    ok = RunOutcome("d", "a", "ok", 1.0, 5, 10, 100, 200, 300, 40, 2)
    ok2 = RunOutcome("d", "a", "ok", 3.0, 7, 12, 100, 250, 350, 60, 2)
    dnf = RunOutcome("d2", "a", "dnf", 0.5, 0, 0, 100, 900, 0, 0, 0, "boom")
    ok3 = RunOutcome("d2", "a", "ok", 1.0, 5, 10, 100, 200, 300, 40, 2)
    merged = mean_outcomes([ok, ok2, dnf, ok3])
    assert len(merged) == 2
    first = merged[0]
    assert first.seconds == pytest.approx(2.0)
    assert first.peak_bytes == 250
    assert merged[1].status == "dnf"


def test_reps_env(monkeypatch):
    monkeypatch.setenv("REPRO_REPS", "3")
    assert bench_reps() == 3
    monkeypatch.setenv("REPRO_REPS", "zero")
    with pytest.raises(ValueError):
        bench_reps()
    monkeypatch.setenv("REPRO_REPS", "0")
    with pytest.raises(ValueError):
        bench_reps()


def sample_outcomes():
    return [
        RunOutcome("candels10", "randomised-contraction", "ok",
                   1.5, 8, 40, 1000, 5000, 8000, 2000, 7),
        RunOutcome("candels10", "hash-to-min", "ok",
                   4.5, 10, 50, 1000, 7000, 20000, 9000, 7),
        RunOutcome("path100m", "randomised-contraction", "ok",
                   0.5, 9, 45, 800, 4800, 6000, 1500, 1),
        RunOutcome("path100m", "hash-to-min", "dnf",
                   0.2, 0, 0, 800, 9000, 0, 0, 0, "space"),
    ]


def test_render_table3_marks_dnf():
    text = render_table3(sample_outcomes())
    assert "TABLE III" in text
    assert "candels10" in text
    assert "-" in text
    assert "paper RC" in text


def test_render_table4_shows_ratios():
    text = render_table4(sample_outcomes())
    assert "TABLE IV" in text
    assert "5.0" in text  # 5000/1000 peak ratio


def test_render_table5_shows_written():
    text = render_table5(sample_outcomes())
    assert "TABLE V" in text
    assert "20.0 kB" in text


def test_render_figure6_bars():
    text = render_figure6(sample_outcomes())
    assert "FIGURE 6" in text
    assert "#" in text
    assert "did not finish" in text


def test_render_table1_with_measurements():
    text = render_table1([("path100m", 100_000, 16)])
    assert "TABLE I" in text
    assert "rounds/log2|V|" in text


def test_render_table2():
    text = render_table2([("path100m", 100, 99, 1)])
    assert "TABLE II" in text
    assert "paper |V|" in text
