"""The RC ladder benchmark (see perf/README.md and BENCHMARK.json)."""
