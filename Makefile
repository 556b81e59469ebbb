# Development entry points. The engine lives under src/, so every target
# exports PYTHONPATH rather than requiring an editable install.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test test-unit fuzz bench bench-quick bench-engine bench-compare \
	bench-baseline perf perf-aa perf-4m clean

## tier-1: the full unit + benchmark collection, fail-fast
test:
	$(PYTHON) -m pytest -x -q

## unit tests only — no timing-threshold benchmarks, safe for noisy CI runners
test-unit:
	$(PYTHON) -m pytest -x -q tests/

## differential fuzz harness (REPRO_FUZZ_ROUNDS / REPRO_FUZZ_SEED env knobs)
fuzz:
	$(PYTHON) -m pytest -q tests/test_differential_fuzz.py

## the complete paper-reproduction benchmark grid (Tables III-V, figures)
bench:
	$(PYTHON) -m pytest -q benchmarks/

## a fast benchmark smoke pass at reduced scale
bench-quick:
	REPRO_SCALE=0.1 $(PYTHON) -m pytest -q benchmarks/ -k "engine or table3"

## engine kernel/cache micro-benchmarks only (writes BENCH_engine.json)
bench-engine:
	$(PYTHON) -m pytest -q benchmarks/test_bench_engine_microbench.py

## diff fresh BENCH_engine.json against the committed baseline (informational;
## exit 4 = refused, the two files were recorded on different core counts)
bench-compare:
	$(PYTHON) scripts/bench_compare.py benchmarks/baselines/BENCH_engine.json \
		benchmarks/results/BENCH_engine.json

## adopt fresh bench-engine results as the committed baseline — run after a
## PR deliberately moves the numbers or adds metric sections (e.g.
## left_chain / dataflow), then commit the updated baseline file.  Always
## re-runs bench-engine so a stale results file can never become the
## baseline.
bench-baseline: bench-engine
	cp benchmarks/results/BENCH_engine.json \
		benchmarks/baselines/BENCH_engine.json

## the RC ladder benchmark BENCHMARK.json declares: four workloads, each
## untraced then traced (~4.5 min; writes perf/out/, see perf/README.md)
perf:
	python3 perf/run.py

## A/A check of the ladder: the same commit against itself, to read the
## run-to-run spread before trusting a before/after difference
perf-aa:
	python3 perf/aa.py

## the rung above the committed ladder: G(2M, 4M), three timed runs, no
## time budget (~1 min, 2.5 GB) — ROADMAP A's "edges/s within 1.5x between
## 1e5 and 4e6" is read off this line and `make perf`'s gnm_100k
perf-4m:
	python3 perf/run.py --workload gnm_1m --scale 4 --reps 3 --seconds 0 --trace 0

# benchmarks/results is regenerated scratch output; the committed
# comparison baseline lives in benchmarks/baselines/ and is never cleaned.
clean:
	rm -rf benchmarks/results .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
