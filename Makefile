# Development entry points. The engine lives under src/, so every target
# exports PYTHONPATH rather than requiring an editable install.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test test-unit fuzz bench bench-quick perf perf-aa perf-ab grid-ab perf-4m size working-memory key-forms stmt-costs clean

## tier-1: the full unit + benchmark collection, fail-fast
test:
	$(PYTHON) -m pytest -x -q

## unit tests only — without the paper-reproduction grid under benchmarks/
test-unit:
	$(PYTHON) -m pytest -x -q tests/

## differential fuzz harness: every statement against stdlib sqlite3, the
## engine configurations against one another (REPRO_FUZZ_ROUNDS /
## REPRO_FUZZ_SEED env knobs)
fuzz:
	$(PYTHON) -m pytest -q tests/test_differential_fuzz.py

## the complete paper-reproduction benchmark grid (Tables III-V, figures)
bench:
	$(PYTHON) -m pytest -q benchmarks/

## a fast benchmark smoke pass at reduced scale
bench-quick:
	REPRO_SCALE=0.1 $(PYTHON) -m pytest -q benchmarks/ -k table3

## the RC ladder benchmark BENCHMARK.json declares: four workloads, each
## untraced then traced (~4.5 min; writes perf/out/, see perf/README.md)
perf:
	python3 perf/run.py

## A/A check of the ladder: the same commit against itself, to read the
## run-to-run spread before trusting a before/after difference
perf-aa:
	python3 perf/aa.py

## alternating A/B pairs of one workload (WORKLOAD=all: every workload of
## BENCHMARK.json in turn): revision BASE (exported to a temporary
## directory, removed afterwards) against the working tree; prints every
## run, both medians and quartiles, the win count, and per end-to-end
## metric both medians, their ratio and WORSE beyond the metric's bound
BASE ?= HEAD
WORKLOAD ?= gnm_100k
PAIRS ?= 5
perf-ab:
	python3 scripts/perf_ab.py --base $(BASE) --workload $(WORKLOAD) --pairs $(PAIRS)

## the same A/B over the paper's Table III grid (RC, HM, TP, CR and the
## Spark model's RC on every dataset, at REPRO_SCALE, default 0.5), both
## trees in one process: per-cell medians, per-algorithm totals, and a
## failure if any cell's labels, statements or bytes differ
grid-ab:
	python3 scripts/perf_ab.py --base $(BASE) --grid --pairs $(PAIRS)

## the rung above the committed ladder: G(2M, 4M), three timed runs, no
## time budget (~1 min, 2.5 GB) — ROADMAP A's "edges/s within 1.5x between
## 1e5 and 4e6" is read off this line and `make perf`'s gnm_100k
perf-4m:
	python3 perf/run.py --workload gnm_1m --scale 4 --reps 3 --seconds 0 --trace 0

## the numbers every ROADMAP re-anchor re-counts by hand ("Size"), and the
## import closure of a labelling process: the peak RSS of a fresh
## `import repro, repro.cli` and the third-party packages it loads (numpy)
size:
	@echo "src/ lines:        $$(find src -name '*.py' | xargs cat | wc -l)"
	@echo "sqlengine/ lines:  $$(find src/repro/sqlengine -name '*.py' | xargs cat | wc -l)"
	@echo "executor.py lines: $$(wc -l < src/repro/sqlengine/executor.py)"
	@echo "stats.COUNTERS:    $$($(PYTHON) -c 'from repro.sqlengine import stats; print(len(stats.COUNTERS), "(retired:", len(stats.RETIRED), end=")")')"
	@echo "join routes:       $$($(PYTHON) -c 'from repro.sqlengine import operators; print(len(operators.JOIN_ROUTES))')"
	@echo "import repro:      $$($(PYTHON) -c 'import resource, sys; before = set(sys.modules); import repro, repro.cli; \
	  loaded = {m.split(".")[0] for m in set(sys.modules) - before} - set(sys.stdlib_module_names) - {"repro"}; \
	  print(f"{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f} MB ru_maxrss; third-party:", *sorted(loaded))')"

## the six ratios tests/test_working_memory.py bounds, beside their bounds:
## (input table bytes + traced peak) / peak_live_bytes of a warm RC run,
## fast and deterministic-space, on its three graphs (~15 s)
working-memory:
	@$(PYTHON) -c 'from tests.test_working_memory import BOUND, working_memory_ratio as ratio; \
	[print(f"{graph:<6} {variant:<20} {ratio(graph, variant):.3f}  bound {bound}") \
	 for (graph, variant), bound in sorted(BOUND.items())]'

## the key forms (codes or plain) and the route of every join, DISTINCT,
## GROUP BY and UDF domain of every shipped algorithm (~5 s)
key-forms:
	$(PYTHON) scripts/key_forms.py

## what a warm RC run pays per statement on G(1k, 2k) and G(50k, 100k):
## microseconds per statement kind, and the shares of the wall-clock in
## the plan cache's lookup and in GF(2^64) map set-up and apply (~15 s)
stmt-costs:
	$(PYTHON) scripts/stmt_costs.py

# benchmarks/results is regenerated scratch output.
clean:
	rm -rf benchmarks/results .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
