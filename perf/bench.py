"""Measuring half of the RC ladder benchmark.

:func:`run_workload` sets one workload up, runs Randomised Contraction in a
closed loop (one client): a fixed number of runs, then more until a time
budget is spent.  It checks every run's labelling and
returns the metrics ``BENCHMARK.json`` names: the end-to-end ones with
tracing off, the per-layer ones from a separate traced pass.

Everything is measured from outside the program — public counters, the
public ``db.stats.log``, an instance-level wrapper assigned to
``db.execute`` and timing calls into public functions.  ``Database()`` runs
with all defaults, so an engine PR can delete switches, backends, counters
or kernels without editing this file: a per-layer probe whose import,
counter or function is gone reports ``None``.  End-to-end metrics never do.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import json
import resource
import statistics
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Optional

import numpy as np

from repro.core import RandomisedContraction, ground_truth_labels
from repro.graphs import EdgeList, gnm_random_graph, load_edges_into, path_graph
from repro.sqlengine import Database

EDGES_TABLE = "edges"
#: Seeds a traced pass runs (each untraced and traced) however short its
#: time budget.
MIN_PAIRS = 2
#: Traced reps written to the trace file (``small_2k`` traces hundreds).
TRACE_FILE_REPS = 50
#: Statement kinds, as the algorithm labels its statements; unlabelled
#: statements (drop / rename) are ``ddl``.
KINDS = ("setup", "reps", "relabel-src", "contract", "compose", "ddl")


@dataclass(frozen=True)
class Workload:
    graph: Callable[[float, np.random.Generator], EdgeList]
    variant: str
    #: Untimed reps that end the set-up (plan caches filled, pool started).
    warmups: int
    #: Timed reps every untraced pass runs whatever the host's speed; the
    #: count metrics are taken over exactly these, so that they repeat
    #: exactly for a fixed seed.  More follow while the time budget lasts.
    reps: int


def _gnm(n: int, m: int) -> Callable[[float, np.random.Generator], EdgeList]:
    def build(scale: float, rng: np.random.Generator) -> EdgeList:
        return gnm_random_graph(max(2, round(n * scale)),
                                max(1, round(m * scale)), rng)
    return build


def _path(n: int) -> Callable[[float, np.random.Generator], EdgeList]:
    return lambda scale, rng: path_graph(max(2, round(n * scale)))


#: Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "gnm_1m": Workload(_gnm(500_000, 1_000_000), "fast", 2, 9),
    "gnm_100k": Workload(_gnm(50_000, 100_000), "fast", 3, 60),
    "small_2k": Workload(_gnm(1_000, 2_000), "fast", 50, 500),
    "path_500k_detspace": Workload(_path(500_000), "deterministic-space", 2, 9),
}


# ---------------------------------------------------------------------------
# set-up, reps and the correctness gate
# ---------------------------------------------------------------------------


class LabelChecker:
    """The ``validate_labelling`` argument, split in two: the cheap checks
    run after every rep, the scipy ground truth once at the end so that it
    does not pollute ``peak_rss_mb``."""

    def __init__(self, edges: EdgeList):
        self._edges = edges
        self._vertices = edges.vertices()
        self._src = np.searchsorted(self._vertices, edges.src)
        self._dst = np.searchsorted(self._vertices, edges.dst)

    def check(self, db: Database, result) -> tuple[Optional[str], int]:
        """(error or None, distinct labels) for one finished run."""
        vertices, labels = result.labels(db)
        n = self._vertices.shape[0]
        if result.n_labelled != n or vertices.shape[0] != n:
            return f"labelled {result.n_labelled} of {n} vertices", 0
        order = np.argsort(vertices, kind="stable")
        if not np.array_equal(vertices[order], self._vertices):
            return "labelled vertex set differs from the graph's", 0
        labels = labels[order]
        if not np.array_equal(labels[self._src], labels[self._dst]):
            return "an edge connects differently-labelled vertices", 0
        return None, int(np.unique(labels).shape[0])

    def n_components(self) -> int:
        _, truth = ground_truth_labels(self._edges)
        return int(np.unique(truth).shape[0])


class Span(NamedTuple):
    kind: str
    start: float
    end: float
    thread: int
    sql: str


class StatementTracer:
    """Instance-level wrapper assigned to ``db.execute``.  The algorithm
    and the dataflow scheduler both call it through the instance, so every
    statement gets a span without a source change."""

    def __init__(self, db: Database):
        self._db = db
        self._execute = db.execute
        self._spans: list[Span] = []

    def __enter__(self) -> "StatementTracer":
        self._db.execute = self._traced
        return self

    def __exit__(self, *exc_info) -> None:
        del self._db.execute

    def _traced(self, sql: str, label: str = ""):
        kind = label.rpartition(":")[2]
        start = time.perf_counter()
        try:
            return self._execute(sql, label=label)
        finally:
            # list.append is atomic, so scheduler threads need no lock.
            self._spans.append(Span(kind if kind in KINDS else "ddl", start,
                                    time.perf_counter(),
                                    threading.get_ident(), sql))

    def take(self) -> list[Span]:
        spans, self._spans = self._spans, []
        return spans


@dataclass
class Rep:
    rc_seed: int
    error: Optional[str] = None
    elapsed_s: float = 0.0
    cpu_s: float = 0.0
    start: float = 0.0
    end: float = 0.0
    peak_live_bytes: int = 0
    bytes_written: int = 0
    sql_queries: int = 0
    n_labels: int = 0
    spans: list = field(default_factory=list)
    layers: Optional[dict] = None


def _rc_seeds(first: int, at_least: int, seconds: float) -> Iterator[int]:
    """RC seeds for a closed loop: ``at_least`` of them, then as many more
    as start within ``seconds`` of the first."""
    deadline = time.perf_counter() + seconds
    for i in itertools.count():
        if i >= at_least and time.perf_counter() >= deadline:
            return
        yield first + i


class Bench:
    """One workload set up: its graph, checker and warm database."""

    def __init__(self, spec: Workload, seed: int, scale: float, warmups: int):
        self.seed = seed
        started = time.perf_counter()
        self.edges = spec.graph(scale, np.random.default_rng(seed))
        self.generate_s = time.perf_counter() - started
        self.checker = LabelChecker(self.edges)
        self.algo = RandomisedContraction(variant=spec.variant)
        self.last_result = None
        started = time.perf_counter()
        self.db = Database()
        load_edges_into(self.db, EDGES_TABLE, self.edges)
        self.load_s = time.perf_counter() - started
        for i in range(warmups):
            self.db.reset_stats()
            gc.collect()
            self.algo.run(self.db, EDGES_TABLE, seed=seed + 1 + i)
        #: Graph generation + load + warm-up reps.
        self.setup_s = self.generate_s + time.perf_counter() - started

    def close(self) -> None:
        self.db.close()

    def run_rep(self, rc_seed: int,
                tracer: Optional["StatementTracer"] = None) -> Rep:
        """One run; ``reset_stats``, ``gc.collect`` and the labelling checks
        stay outside the timed region.  A run that raises is counted as
        failed and the loop goes on."""
        db, rep = self.db, Rep(rc_seed)
        db.reset_stats()
        gc.collect()
        try:
            with tracer if tracer is not None else contextlib.nullcontext():
                cpu = time.process_time()
                rep.start = time.perf_counter()
                result = self.algo.run(db, EDGES_TABLE, seed=rc_seed)
                rep.end = time.perf_counter()
                rep.cpu_s = time.process_time() - cpu
            rep.error, rep.n_labels = self.checker.check(db, result)
        except Exception:
            rep.error = traceback.format_exc()
            return rep
        finally:
            if tracer is not None:
                rep.spans = tracer.take()
        self.last_result = result
        rep.elapsed_s = result.elapsed_seconds
        rep.peak_live_bytes = result.stats.peak_live_bytes
        rep.bytes_written = result.stats.bytes_written
        rep.sql_queries = result.sql_queries
        if tracer is not None:
            rep.layers = _rep_layers(rep, result,
                                     getattr(db.stats, "log", None))
        return rep


def _gate(reps: list[Rep], n_components: int) -> list[str]:
    """Apply the ground-truth count, then list every failed run's reason."""
    for rep in reps:
        if rep.error is None and rep.n_labels != n_components:
            rep.error = (f"{rep.n_labels} distinct labels, "
                         f"{n_components} components")
    return [f"rc seed {rep.rc_seed}: {rep.error}"
            for rep in reps if rep.error is not None]


# ---------------------------------------------------------------------------
# end-to-end metrics
# ---------------------------------------------------------------------------


def _good(reps: list[Rep], what: str) -> list[Rep]:
    good = [rep for rep in reps if rep.error is None]
    if not good:
        raise RuntimeError(f"no {what} run produced a correct labelling:\n"
                           + "\n".join(str(rep.error) for rep in reps))
    return good


def _end_to_end(bench: Bench, reps: list[Rep], counted: int,
                rss_mb: float) -> tuple[dict, dict]:
    """Timing over every run made; the counts over the first ``counted``,
    which a pass runs whatever the host's speed."""
    good = _good(reps, "timed")
    fixed = _good(reps[:counted], "counted")
    n_edges = bench.edges.n_edges
    input_bytes = bench.db.table(EDGES_TABLE).byte_size()
    elapsed = [rep.elapsed_s for rep in good]
    run_s = statistics.median(elapsed)
    quartiles = (statistics.quantiles(elapsed, n=4) if len(good) > 1
                 else [run_s] * 3)
    metrics = {
        "edges_per_s": n_edges / run_s,
        "peak_space_ratio": statistics.median(
            rep.peak_live_bytes for rep in fixed) / input_bytes,
        "written_ratio": statistics.median(
            rep.bytes_written for rep in fixed) / input_bytes,
        "sql_queries": statistics.fmean(rep.sql_queries for rep in fixed),
        "peak_rss_mb": rss_mb,
        "setup_s": bench.setup_s,
    }
    base = {
        "edges": n_edges,
        "input_bytes": input_bytes,
        "timed_reps": len(good),
        "counted_reps": len(fixed),
        "run_s_p25": quartiles[0],
        "run_s_p50": run_s,
        "run_s_p75": quartiles[2],
    }
    return metrics, base


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


def _div(a, b) -> Optional[float]:
    return None if a is None or not b else a / b


def _covered(spans: list[Span]) -> float:
    """Length of the union of the spans' intervals."""
    total, reach = 0.0, float("-inf")
    for span in sorted(spans, key=lambda s: s.start):
        if span.end > reach:
            total += span.end - max(span.start, reach)
            reach = span.end
    return total


def _shrink_mean(log) -> Optional[float]:
    """Geometric mean of edges_{i+1} / edges_i over the contracting rounds
    (the paper bounds the expectation by 3/4), from statement row counts."""
    sizes = [rec.rows for rec in log
             if rec.label.endswith((":setup", ":contract")) and rec.rows > 0]
    if len(sizes) < 2:
        return None
    return (sizes[-1] / sizes[0]) ** (1.0 / (len(sizes) - 1))


def _rep_layers(rep: Rep, result, log) -> dict:
    """One traced run's layer metrics.  The statement-kind spans plus
    ``rc.driver_other_s`` minus ``rc.overlap_s`` sum to the traced wall by
    construction."""
    spans, wall = rep.spans, rep.end - rep.start
    kinds = dict.fromkeys(KINDS, 0.0)
    for span in spans:
        kinds[span.kind] += span.end - span.start
    span_sum, covered = sum(kinds.values()), _covered(spans)
    busy = None if log is None else sum(r.elapsed_seconds for r in log)
    glue = None if busy is None else span_sum - busy

    def counter(name: str) -> Optional[int]:
        return getattr(result.stats, name, None)

    def hit_rate(stem: str) -> Optional[float]:
        hits, misses = counter(f"{stem}_hits"), counter(f"{stem}_misses")
        return None if hits is None or misses is None else _div(
            hits, hits + misses)

    layers = {
        "rc.traced_wall_s": wall,
        "rc.rounds": result.rounds,
        "rc.statements": result.sql_queries,
        "rc.shrink_mean": None if log is None else _shrink_mean(log),
        "rc.driver_other_s": wall - covered,
        "rc.overlap_s": span_sum - covered,
        "dataflow.overlaps": counter("dataflow_overlaps"),
        "dataflow.overlapped_compositions": counter("overlapped_compositions"),
        "dataflow.effects_cache_hits": counter("effects_cache_hits"),
        "database.glue_s": glue,
        "database.glue_us_per_stmt": _div(glue, len(spans) / 1e6),
        "plancache.hit_rate": hit_rate("plan_cache"),
        "physicalplan.hit_rate": hit_rate("physical_plan"),
        "physicalplan.invalidations": counter("physical_plan_invalidations"),
        "executor.busy_s": busy,
        "executor.mrows_written_per_s": _div(
            counter("rows_written"), None if busy is None else busy * 1e6),
        "executor.motion_bytes": counter("motion_bytes"),
        "executor.fused_pipelines": counter("fused_pipelines"),
        "executor.join_chain_fusions": counter("join_chain_fusions"),
        "executor.hash_distincts": counter("hash_distincts"),
        "executor.index_cache_hit_rate": hit_rate("index_cache"),
        "parallel.partitions": counter("parallel_partitions"),
        "parallel.indexed_probes": counter("parallel_indexed_probes"),
        "parallel.dense_probes": counter("parallel_dense_probes"),
        "shm.bytes_exported": counter("shm_bytes_exported"),
        "shm.process_tasks": counter("process_tasks"),
    }
    for kind, seconds in kinds.items():
        layers[f"rc.stmt_{kind.replace('-', '_')}_s"] = seconds
    return layers


def _mean_layers(per_rep: list[dict]) -> dict:
    """Mean over the traced runs (a mean keeps the span identity exact)."""
    out = {}
    for key in per_rep[0]:
        values = [layers[key] for layers in per_rep]
        out[key] = (None if any(v is None for v in values)
                    else statistics.fmean(values))
    return out


def _best_of(fn: Callable[[], object], n: int = 3) -> tuple[float, float]:
    """(start, seconds) of the fastest of ``n`` calls."""
    best = (0.0, float("inf"))
    for _ in range(n):
        start = time.perf_counter()
        fn()
        seconds = time.perf_counter() - start
        if seconds < best[1]:
            best = (start, seconds)
    return best


class _Probes:
    """Timing calls into public functions; each lands in the trace as its
    own span.  A probe whose import or function is gone, or whose signature
    changed, leaves its metric ``None``."""

    GONE = (ImportError, AttributeError, TypeError)

    def __init__(self):
        self.values: dict[str, Optional[float]] = {}
        self.spans: list[Span] = []

    def call(self, fn: Callable[[], object]):
        try:
            return fn()
        except self.GONE:
            return None

    def seconds(self, name: str, fn: Callable[[], object],
                scale: float = 1.0) -> None:
        """Record the fastest call's seconds, times ``scale``."""
        best = self.call(lambda: _best_of(fn))
        if best is not None:
            self.spans.append(Span(name, best[0], best[0] + best[1],
                                   threading.get_ident(), ""))
        self.values[name] = best and best[1] * scale

    def rate(self, name: str, fn: Callable[[], object], mrows: float) -> None:
        """Record million rows per second of the fastest call."""
        self.seconds(name, fn)
        self.values[name] = _div(mrows, self.values[name])


def _kernel_probes(probes: _Probes, edges: EdgeList, seed: int,
                   n_segments: int) -> None:
    """Kernel rates on the workload's own doubled edge columns.  Ids go
    through one GF(2^64) affine map so they look like round >= 2 (sparse
    64-bit keys); the build side is their distinct values, sorted as a
    GROUP BY output is.  Rates are million probe-side rows per second."""
    probes.values.update(dict.fromkeys((
        "ff.axplusb_mrows_s", "operators.index_build_mrows_s",
        "operators.join_sparse_mrows_s",
        "operators.join_sparse_indexed_mrows_s",
        "operators.join_dense_mrows_s", "operators.distinct_pair_mrows_s",
        "operators.group_mrows_s", "parallel.join_sparse_mrows_s")))
    try:
        from repro.ff.gf2_64 import Gf2AffineMap
        from repro.sqlengine import mpp, operators, parallel
        from repro.sqlengine.types import Column

        a, b = (int(x) for x in
                np.random.default_rng(seed).integers(1, 1 << 62, size=2))
        mapping = Gf2AffineMap(a, b)
    except probes.GONE:
        return
    v1 = np.concatenate([edges.src, edges.dst])
    v2 = np.concatenate([edges.dst, edges.src])
    mrows = v1.shape[0] / 1e6
    unsigned = v1.astype(np.uint64)
    probes.rate("ff.axplusb_mrows_s", lambda: mapping.apply(unsigned), mrows)

    sparse1 = mapping.apply(unsigned).view(np.int64)
    sparse2 = mapping.apply(v2.astype(np.uint64)).view(np.int64)
    col = Column.from_values
    left, right = col(sparse1), col(np.unique(sparse1))
    probes.rate("operators.index_build_mrows_s",
                lambda: operators.build_key_index(sparse1), mrows)
    probes.rate("operators.join_sparse_mrows_s",
                lambda: operators.join_indices([left], [right]), mrows)
    index = probes.call(lambda: operators.build_key_index(right.values))
    if index is not None:
        probes.rate("operators.join_sparse_indexed_mrows_s",
                    lambda: operators.join_indices([left], [right],
                                                   right_index=index), mrows)
    dense_left, dense_right = col(v1), col(edges.vertices())
    probes.rate("operators.join_dense_mrows_s",
                lambda: operators.join_indices([dense_left], [dense_right]),
                mrows)
    pair = [left, col(sparse2)]
    probes.rate("operators.distinct_pair_mrows_s",
                lambda: operators.distinct_rows(pair), mrows)
    probes.rate("operators.group_mrows_s",
                lambda: operators.group_rows([left]), mrows)
    pool = probes.call(lambda: mpp.SegmentPool(n_segments))
    if pool is not None:
        try:
            probes.rate("parallel.join_sparse_mrows_s",
                        lambda: parallel.parallel_join_indices(
                            [left], [right], pool), mrows)
        finally:
            pool.shutdown()


def _parse_replay(probes: _Probes, sqls: list[str]) -> None:
    """Cold parse and warm plan-cache lookup over one run's own SQL, in
    microseconds per statement."""
    us_per_statement = 1e6 / len(sqls)

    def cold() -> None:
        from repro.sqlengine.parser import parse_statement
        for sql in sqls:
            parse_statement(sql)

    def warmed():
        from repro.sqlengine.plancache import PlanCache
        cache = PlanCache()
        for sql in sqls:
            cache.entry_for(sql)
        return cache

    probes.seconds("parser.cold_parse_us", cold, us_per_statement)
    probes.values["plancache.warm_lookup_us"] = None
    cache = probes.call(warmed)
    if cache is not None:
        probes.seconds("plancache.warm_lookup_us",
                       lambda: [cache.entry_for(sql) for sql in sqls],
                       us_per_statement)


def _validate_probe(probes: _Probes, bench: Bench, errors: list[str]) -> None:
    """Time the full ``validate_labelling`` on the last run's labels; a
    labelling it rejects fails the pass."""
    vertices, labels = bench.last_result.labels(bench.db)
    reports = []

    def validate() -> None:
        from repro.core import validate_labelling
        reports.append(validate_labelling(bench.edges, vertices, labels))

    probes.seconds("labels.validate_s", validate)
    if reports and not reports[-1].valid:
        errors.append(f"validate_labelling: {reports[-1].reason}")


def _trace_events(reps: list[Rep], probe_spans: list[Span]) -> list[dict]:
    """Chrome trace-event ("X" complete) records.  A run's statements carry
    the run's root-span id as parent and shared identifier."""
    origin = min([rep.start for rep in reps]
                 + [span.start for span in probe_spans])
    threads: dict[int, int] = {}

    def event(name, cat, start, end, thread, args) -> dict:
        tid = threads.setdefault(thread, len(threads))
        return {"name": name, "cat": cat, "ph": "X", "pid": 0, "tid": tid,
                "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
                "args": args}

    events = []
    for number, rep in enumerate(reps[:TRACE_FILE_REPS]):
        root = f"run-{number}"
        events.append(event("rc.run", "run", rep.start, rep.end,
                            threading.get_ident(),
                            {"span_id": root, "trace_id": root,
                             "rc_seed": rep.rc_seed}))
        events.extend(
            event(span.kind, "statement", span.start, span.end, span.thread,
                  {"parent": root, "trace_id": root,
                   "sql": " ".join(span.sql.split())[:120]})
            for span in rep.spans)
    events.extend(event(span.kind, "probe", span.start, span.end, span.thread,
                        {}) for span in probe_spans)
    return events


def _per_layer(bench: Bench, untraced: list[Rep], traced: list[Rep],
               errors: list[str]) -> tuple[dict, list]:
    good, timed = _good(traced, "traced"), _good(untraced, "untraced")
    layers = _mean_layers([rep.layers for rep in good])
    layers["graphs.generate_s"] = bench.generate_s
    layers["graphs.load_s"] = bench.load_s
    layers["mpp.workers"] = getattr(getattr(bench.db, "pool", None),
                                    "n_workers", None)
    # Paired by RC seed: both runs executed the same statements.
    by_seed = {rep.rc_seed: rep for rep in timed}
    layers["trace.overhead_frac"] = statistics.median(
        rep.elapsed_s / by_seed[rep.rc_seed].elapsed_s
        for rep in good if rep.rc_seed in by_seed) - 1.0
    wall = sum(rep.elapsed_s for rep in timed)
    layers["mpp.cpu_over_wall"] = sum(rep.cpu_s for rep in timed) / wall
    # Always a number, as the driver requires of every metric; only
    # small_2k makes enough runs (base["untraced_reps"]) for it to be a tail.
    p95, p99 = np.percentile([rep.elapsed_s * 1e3 for rep in timed], [95, 99])
    layers["tail.run_ms_p95"] = float(p95)
    layers["tail.run_ms_p99"] = float(p99)

    probes = _Probes()
    _kernel_probes(probes, bench.edges, bench.seed,
                   bench.db.cluster.n_segments)
    _parse_replay(probes, [span.sql for span in good[-1].spans])
    _validate_probe(probes, bench, errors)
    layers.update(probes.values)
    return layers, _trace_events(good, probes.spans)


# ---------------------------------------------------------------------------
# one workload, one pass
# ---------------------------------------------------------------------------


def _untraced_pass(bench: Bench, first_seed: int, counted: int,
                   seconds: float) -> tuple[list[Rep], list[str], dict, dict]:
    """``counted`` timed runs, more while ``seconds`` last: end-to-end
    metrics."""
    runs = [bench.run_rep(rc_seed)
            for rc_seed in _rc_seeds(first_seed, counted, seconds)]
    # Read before the ground truth runs: scipy is not the program.
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    errors = _gate(runs, bench.checker.n_components())
    return (runs, errors, *_end_to_end(bench, runs, counted, rss_mb))


def _traced_pass(bench: Bench, first_seed: int, pairs: int, seconds: float,
                 trace_file: Optional[Path]
                 ) -> tuple[list[Rep], list[str], dict, dict]:
    """Every RC seed runs untraced and under the statement tracer back to
    back, in alternating order so that drift cancels in the overhead ratio;
    then the probes."""
    tracer = StatementTracer(bench.db)
    untraced, traced = [], []
    for rc_seed in _rc_seeds(first_seed, pairs, seconds):
        pair = [(untraced, None), (traced, tracer)]
        for into, how in pair[::-1] if len(traced) % 2 else pair:
            into.append(bench.run_rep(rc_seed, how))
    runs = untraced + traced
    errors = _gate(runs, bench.checker.n_components())
    metrics, events = _per_layer(bench, untraced, traced, errors)
    if trace_file is not None:
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        trace_file.write_text(json.dumps({"traceEvents": events,
                                          "displayTimeUnit": "ms"}))
    base = {"edges": bench.edges.n_edges, "untraced_reps": len(untraced),
            "traced_reps": len(traced)}
    return runs, errors, metrics, base


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: float = 1.0, reps: Optional[int] = None,
                 out_dir: Optional[Path] = None) -> dict:
    """Set one workload up, run one pass and return its metrics by name:
    end-to-end with ``trace`` off, per-layer — plus
    ``out_dir/trace_<name>.json`` — with it on.  The pass makes its fixed
    number of runs (``reps``, when given), then more for ``seconds``."""
    spec = WORKLOADS[name]
    warmups = spec.warmups if reps is None else min(spec.warmups, reps)
    first_seed = seed + 1 + warmups
    bench = Bench(spec, seed, scale, warmups)
    try:
        if trace:
            trace_file = out_dir and out_dir / f"trace_{name}.json"
            runs, errors, metrics, base = _traced_pass(
                bench, first_seed, MIN_PAIRS if reps is None else reps,
                seconds, trace_file)
        else:
            runs, errors, metrics, base = _untraced_pass(
                bench, first_seed, spec.reps if reps is None else reps,
                seconds)
    finally:
        bench.close()
    return {
        "workload": name, "seed": seed, "trace": int(trace), "scale": scale,
        "warmup_reps": warmups, "attempted": len(runs),
        "failed": sum(rep.error is not None for rep in runs),
        "errors": errors, "metrics": metrics, "base": base,
    }
