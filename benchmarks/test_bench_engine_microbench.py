"""E-ENG — engine micro-benchmarks: kernels, caches, physical plans.

Not a paper table: this bench tracks the *engine's* performance trajectory
across PRs.  It measures the hash/dictionary kernels against the seed
sort-merge reference on synthetic single-column ``int64`` keys (the
dominant shape of every reproduced algorithm), the value of the table
index cache on repeated joins, the plan- and physical-plan-cache hit rates
over Randomised Contraction runs, the fused join->DISTINCT pipeline
against the materialising one, the segment-parallel kernels against their
single-threaded references, and the end-to-end effect with all caches on
vs. off.

Results land in ``benchmarks/results/BENCH_engine.json`` (ops/sec per
kernel and size) so successive PRs can diff engine throughput
(``make bench-compare`` diffs against ``benchmarks/baselines/``).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.core import RandomisedContraction
from repro.graphs import gnm_random_graph
from repro.graphs.edgelist import EdgeList
from repro.graphs.io import load_edges_into
from repro.sqlengine import Database
from repro.sqlengine.mpp import SegmentPool
from repro.sqlengine.operators import (
    build_key_index,
    distinct_rows,
    join_indices,
    merge_join_indices,
    sorted_group_rows,
)
from repro.sqlengine.parallel import (
    AggregateSpec,
    group_aggregate,
    parallel_group_aggregate,
    parallel_join_indices,
)
from repro.sqlengine.parser import parse_statement
from repro.sqlengine.types import INT64, Column

from .conftest import emit

RESULTS_DIR = Path(__file__).parent / "results"

SIZES = [10_000, 100_000, 1_000_000]
REPS = 3


def best_of(fn, reps: int = REPS) -> float:
    best = float("inf")
    for _ in range(reps):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def best_of_pair(fn_a, fn_b, reps: int = REPS) -> tuple[float, float]:
    """``best_of`` for two things whose *ratio* carries an assert: the runs
    alternate, so a slow spell of the machine falls on both sides instead
    of on whichever happened to be measured during it."""
    best_a = best_b = float("inf")
    for _ in range(reps):
        best_a = min(best_a, best_of(fn_a, 1))
        best_b = min(best_b, best_of(fn_b, 1))
    return best_a, best_b


def reference_distinct(columns):
    """The seed DISTINCT: lexsort-based grouping, first row per group,
    in the kernels' documented ascending-row output order."""
    order, starts = sorted_group_rows(columns)
    return np.sort(order[starts]) if order.size else order


def test_engine_microbench():
    rng = np.random.default_rng(20200420)
    report: dict = {"sizes": {}, "asserted": {}}

    for n in SIZES:
        # -- joins: probe n edge endpoints against n unique vertex ids ----
        dense_build = Column(rng.permutation(n).astype(np.int64), "int64")
        dense_probe = Column(rng.integers(0, n, n).astype(np.int64), "int64")
        sparse_values = rng.integers(0, 2 ** 62, n).astype(np.int64)
        sparse_build = Column(sparse_values, "int64")
        sparse_probe = Column(sparse_values[rng.integers(0, n, n)], "int64")
        sparse_index = build_key_index(sparse_build.values)

        t_seed_dense = best_of(
            lambda: merge_join_indices([dense_probe], [dense_build]))
        t_hash_dense = best_of(
            lambda: join_indices([dense_probe], [dense_build]))
        t_seed_sparse = best_of(
            lambda: merge_join_indices([sparse_probe], [sparse_build]))
        t_indexed_sparse = best_of(
            lambda: join_indices([sparse_probe], [sparse_build],
                                 right_index=sparse_index))

        # -- distinct over a dense key column with duplicates -------------
        distinct_input = Column(
            rng.integers(0, max(n // 3, 1), n).astype(np.int64), "int64")
        t_seed_distinct = best_of(lambda: reference_distinct([distinct_input]))
        t_hash_distinct = best_of(lambda: distinct_rows([distinct_input]))

        report["sizes"][n] = {
            "join_dense": {
                "seed_s": t_seed_dense, "hash_s": t_hash_dense,
                "speedup": t_seed_dense / t_hash_dense,
                "hash_rows_per_s": n / t_hash_dense,
            },
            "join_sparse_indexed": {
                "seed_s": t_seed_sparse, "hash_s": t_indexed_sparse,
                "speedup": t_seed_sparse / t_indexed_sparse,
                "hash_rows_per_s": n / t_indexed_sparse,
            },
            "distinct_dense": {
                "seed_s": t_seed_distinct, "hash_s": t_hash_distinct,
                "speedup": t_seed_distinct / t_hash_distinct,
                "hash_rows_per_s": n / t_hash_distinct,
            },
        }

    # Correctness spot-check at the largest size (full property coverage
    # lives in tests/test_operators.py).
    n = SIZES[-1]
    a = merge_join_indices([dense_probe], [dense_build])
    b = join_indices([dense_probe], [dense_build])
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    assert np.array_equal(reference_distinct([distinct_input]),
                          distinct_rows([distinct_input]))

    # -- acceptance: >= 2x on the 1e6 single-column int64 kernels ---------
    at_1m = report["sizes"][SIZES[-1]]
    report["asserted"] = {
        "join_dense_speedup_1m": at_1m["join_dense"]["speedup"],
        "join_sparse_indexed_speedup_1m":
            at_1m["join_sparse_indexed"]["speedup"],
        "distinct_dense_speedup_1m": at_1m["distinct_dense"]["speedup"],
    }
    assert at_1m["join_dense"]["speedup"] >= 2.0
    assert at_1m["distinct_dense"]["speedup"] >= 2.0
    assert at_1m["join_sparse_indexed"]["speedup"] >= 1.5

    # -- plan cache: parse cost amortisation ------------------------------
    db = Database()
    db.execute("create table g1 (v1 int64, v2 int64)")
    db.execute("insert into g1 values (1, 2), (2, 3)")
    statement = ("select v1, count(*) c from g1 where v1 != 0 "
                 "group by v1")
    n_statements = 500
    t_parse_every_time = best_of(
        lambda: [parse_statement(statement) for _ in range(n_statements)], 1)
    before = db.stats.snapshot()
    started = time.perf_counter()
    for _ in range(n_statements):
        db.execute(statement)
    t_cached_execute = time.perf_counter() - started
    delta = db.stats.snapshot().delta(before)
    hit_rate = delta.plan_cache_hits / max(delta.queries, 1)
    report["plan_cache"] = {
        "statements": n_statements,
        "hit_rate": hit_rate,
        "parse_only_s": t_parse_every_time,
        "cached_execute_s": t_cached_execute,
    }
    assert hit_rate > 0.99

    # -- physical plans: hit rate over the Randomised Contraction loop ----
    # Steady-state behaviour: a database whose statement templates are warm
    # (a prior small run) re-executes every round-loop statement from its
    # cached physical plan; only validity checks and parameter patches
    # remain.  The cold (first-run) rate is recorded alongside.
    warm_edges = gnm_random_graph(2_000, 3_600, np.random.default_rng(5))
    measured_edges = gnm_random_graph(60_000, 110_000,
                                      np.random.default_rng(3))
    pp_db = Database(n_segments=4)
    load_edges_into(pp_db, "edges_warm", warm_edges)
    RandomisedContraction().run(pp_db, "edges_warm", seed=7)
    cold = pp_db.stats.snapshot()
    cold_planned = cold.physical_plan_hits + cold.physical_plan_misses
    load_edges_into(pp_db, "edges_main", measured_edges)
    RandomisedContraction().run(pp_db, "edges_main", seed=99)
    warm = pp_db.stats.snapshot().delta(cold)
    warm_planned = warm.physical_plan_hits + warm.physical_plan_misses
    report["physical_plan"] = {
        "cold_hit_rate": cold.physical_plan_hits / max(cold_planned, 1),
        "round_loop_hit_rate": warm.physical_plan_hits / max(warm_planned, 1),
        "round_loop_planned_statements": warm_planned,
        "invalidations": warm.physical_plan_invalidations,
        "fused_pipelines": warm.fused_pipelines,
    }
    assert report["physical_plan"]["round_loop_hit_rate"] >= 0.95
    assert warm.physical_plan_invalidations == 0

    # Warm-loop engagement proofs for the round-2 fusion kernels: the
    # contract DISTINCT pairs two dictionary-encoded gathers of the GF(2^64)
    # representatives (packed codes, key order — the hash kernel is the
    # fallback nothing in the loop needs, and every later round's reps
    # GROUP BY skips its sort); a sparse-vertex-id graph makes round 1's
    # build side a sorted-index probe (forced 4-worker pool so the chunked
    # path runs even on single-core hosts); the table-strategy rounds'
    # neigh-min is the fused join->GROUP BY shape.
    assert warm.hash_distincts == 0
    assert warm.group_sorts_skipped > 1
    report["physical_plan"]["rc_hash_distincts"] = warm.hash_distincts
    report["physical_plan"]["rc_group_sorts_skipped"] = \
        warm.group_sorts_skipped
    sparse_edges = EdgeList(measured_edges.src * 9973 + 5,
                            measured_edges.dst * 9973 + 5)
    probe_db = Database(n_segments=4, pool_workers=4)
    load_edges_into(probe_db, "edges_sparse", sparse_edges)
    RandomisedContraction().run(probe_db, "edges_sparse", seed=99)
    report["physical_plan"]["rc_parallel_indexed_probes"] = \
        probe_db.stats.parallel_indexed_probes
    assert probe_db.stats.parallel_indexed_probes > 0
    probe_db.close()
    rr_db = Database(n_segments=4)
    load_edges_into(rr_db, "edges_rr", warm_edges)
    RandomisedContraction(method="random-reals",
                          variant="deterministic-space").run(
        rr_db, "edges_rr", seed=7)
    report["physical_plan"]["rc_fused_group_pipelines"] = \
        rr_db.stats.fused_group_pipelines
    assert rr_db.stats.fused_group_pipelines > 0
    # The deterministic-space contract is a three-table chain (e ⋈ r ⋈ r):
    # its first join must stream into the fused final DISTINCT without
    # materialising, on the warm round loop.
    report["physical_plan"]["rc_join_chain_fusions"] = \
        rr_db.stats.join_chain_fusions
    assert rr_db.stats.join_chain_fusions > 0
    rr_db.close()
    # Dense vertex ids + a warm build-side index + a multi-worker pool:
    # the direct-address probe must chunk across the pool instead of
    # falling back single-threaded (the fourth closed bottleneck).
    dense_db = Database(n_segments=4, pool_workers=4)
    load_edges_into(dense_db, "edges_dense", measured_edges)
    RandomisedContraction().run(dense_db, "edges_dense", seed=99)
    report["physical_plan"]["rc_parallel_dense_probes"] = \
        dense_db.stats.parallel_dense_probes
    assert dense_db.stats.parallel_dense_probes > 0
    dense_db.close()
    pp_db.close()

    # -- dataflow scheduler: the statement-level dependency DAG overlaps
    # round i's composing CREATE with round i's contraction (and the cheap
    # retire tasks with the next round), where the old composer held one
    # background slot.  Labels must stay bit-identical to the serial
    # schedule, and the dataflow_overlaps counter must prove at least one
    # genuinely concurrent independent-statement pair per composed round.
    def run_overlap(workers: int):
        odb = Database(n_segments=4, pool_workers=workers)
        load_edges_into(odb, "edges_ov", warm_edges)
        started = time.perf_counter()
        result = RandomisedContraction(variant="deterministic-space").run(
            odb, "edges_ov", seed=31)
        elapsed = time.perf_counter() - started
        vertices, labels = result.labels(odb)
        order = np.argsort(vertices, kind="stable")
        stats = odb.stats.snapshot()
        odb.close()
        return elapsed, vertices[order], labels[order], stats

    t_overlap, v_ov, l_ov, stats_ov = run_overlap(4)
    t_serial, v_se, l_se, stats_se = run_overlap(1)
    assert np.array_equal(v_ov, v_se) and np.array_equal(l_ov, l_se)
    assert stats_ov.overlapped_compositions > 0
    assert stats_se.overlapped_compositions == 0
    # Engagement: every composed round schedules >= 2 independent
    # statements concurrently (composition ∥ contraction), each recorded
    # as one overlap; the serial schedule must record none.  This bound
    # holds deterministically in practice: the contraction is submitted
    # microseconds after the composing CREATE, which joins the
    # never-shrinking label table (one row per vertex every round) and so
    # cannot have finished inside that window.
    assert stats_ov.dataflow_overlaps >= stats_ov.overlapped_compositions
    assert stats_se.dataflow_overlaps == 0
    # The warm round loop must derive its scheduler effect sets from the
    # plan cache's templates, never re-parsing a statement for hazards.
    assert stats_ov.effects_cache_hits > 0
    report["overlapped_composition"] = {
        "rounds_overlapped": stats_ov.overlapped_compositions,
        "serial_s": t_serial,
        "overlapped_s": t_overlap,
        "speedup": t_serial / t_overlap,
    }
    report["dataflow"] = {
        "overlaps": stats_ov.dataflow_overlaps,
        "composed_rounds": stats_ov.overlapped_compositions,
        "overlaps_per_composed_round":
            stats_ov.dataflow_overlaps / stats_ov.overlapped_compositions,
        "serial_overlaps": stats_se.dataflow_overlaps,
    }

    # -- fusion: join -> DISTINCT vs the materialising pipeline -----------
    # Two shapes at 1e6 rows: the paper's narrow contract query (two
    # columns per table; the saved gathers sit inside allocator noise on
    # some hosts, so it is recorded informationally) and a wide-payload
    # variant where the materialising pipeline's full-column gathers are
    # structural cost — that one carries the acceptance assert.
    n_fuse = SIZES[-1]
    n_reps_rows = n_fuse // 3
    contract = ("select distinct v1, r2.rep as v2 from graph2, reps as r2 "
                "where graph2.v2 = r2.v and v1 != r2.rep")

    def fusion_db(use_fusion: bool, payload: int) -> Database:
        fdb = Database(n_segments=4, use_fusion=use_fusion)
        frng = np.random.default_rng(8)
        graph_cols = {
            "v1": frng.integers(0, n_reps_rows, n_fuse),
            "v2": frng.integers(0, n_reps_rows, n_fuse),
        }
        for i in range(payload):
            graph_cols[f"w{i}"] = frng.integers(0, 100, n_fuse)
        fdb.load_table("graph2", graph_cols, distributed_by="v2")
        reps_cols = {
            "v": np.arange(n_reps_rows, dtype=np.int64),
            "rep": frng.integers(0, n_reps_rows, n_reps_rows),
        }
        for i in range(payload // 2):
            reps_cols[f"p{i}"] = frng.integers(0, 9, n_reps_rows)
        fdb.load_table("reps", reps_cols, distributed_by="v")
        return fdb

    report["fused_distinct"] = {"rows": n_fuse}
    for shape, payload in (("contract", 0), ("wide", 4)):
        fused_db = fusion_db(True, payload)
        plain_db = fusion_db(False, payload)
        fused_rel = fused_db.execute(contract).relation
        plain_rel = plain_db.execute(contract).relation
        for name_f, name_p in zip(fused_rel.names, plain_rel.names):
            assert np.array_equal(fused_rel.column(name_f).values,
                                  plain_rel.column(name_p).values)
        t_fused, t_plain = best_of_pair(
            lambda: fused_db.execute(contract),
            lambda: plain_db.execute(contract))
        assert fused_db.stats.fused_pipelines > 0
        report["fused_distinct"][shape] = {
            "materialising_s": t_plain,
            "fused_s": t_fused,
            "speedup": t_plain / t_fused,
        }
        fused_db.close()
        plain_db.close()
        del fused_db, plain_db
    # "Measurably faster": asserted on the wide shape, with CI slack.
    wide = report["fused_distinct"]["wide"]
    assert wide["fused_s"] <= wide["materialising_s"] * 0.95

    # -- fusion: join -> GROUP BY vs the materialising pipeline ------------
    # The table-strategy round's neigh-min shape: aggregate directly over
    # the probe stream.  Same two payload shapes as the DISTINCT fusion;
    # the acceptance assert rides on the wide one.
    group_query = ("select v1, min(r2.rep) hmin, count(*) c from graph2, "
                   "reps as r2 where graph2.v2 = r2.v group by v1")
    report["fused_group_by"] = {"rows": n_fuse}
    for shape, payload in (("contract", 0), ("wide", 4)):
        fg_db = fusion_db(True, payload)
        pg_db = fusion_db(False, payload)
        fused_rel = fg_db.execute(group_query).relation
        plain_rel = pg_db.execute(group_query).relation
        for name_f, name_p in zip(fused_rel.names, plain_rel.names):
            assert np.array_equal(fused_rel.column(name_f).values,
                                  plain_rel.column(name_p).values)
        t_fused_g, t_plain_g = best_of_pair(
            lambda: fg_db.execute(group_query),
            lambda: pg_db.execute(group_query))
        assert fg_db.stats.fused_group_pipelines > 0
        assert pg_db.stats.fused_group_pipelines == 0
        report["fused_group_by"][shape] = {
            "materialising_s": t_plain_g,
            "fused_s": t_fused_g,
            "speedup": t_plain_g / t_fused_g,
        }
        fg_db.close()
        pg_db.close()
        del fg_db, pg_db
    wide_group = report["fused_group_by"]["wide"]
    assert wide_group["fused_s"] <= wide_group["materialising_s"] * 0.95

    # -- join-chain fusion: the contract chain (e ⋈ r ⋈ r -> DISTINCT) -----
    # The first join feeds the final join's probe side; the chained plan
    # composes row maps instead of materialising the intermediate (which
    # in the wide shape carries the payload columns at ~1e6 rows).
    chain_query = ("select distinct rv.rep as v1, rw.rep as v2 "
                   "from graph2, reps as rv, reps as rw "
                   "where graph2.v1 = rv.v and graph2.v2 = rw.v "
                   "and rv.rep != rw.rep")
    report["join_chain"] = {"rows": n_fuse}
    for shape, payload in (("contract", 0), ("wide", 4)):
        chain_db = fusion_db(True, payload)
        plain_db = fusion_db(False, payload)
        chained_rel = chain_db.execute(chain_query).relation
        plain_rel = plain_db.execute(chain_query).relation
        for name_f, name_p in zip(chained_rel.names, plain_rel.names):
            assert np.array_equal(chained_rel.column(name_f).values,
                                  plain_rel.column(name_p).values)
        t_chained, t_materialised = best_of_pair(
            lambda: chain_db.execute(chain_query),
            lambda: plain_db.execute(chain_query))
        assert chain_db.stats.join_chain_fusions > 0
        assert plain_db.stats.join_chain_fusions == 0
        report["join_chain"][shape] = {
            "materialising_s": t_materialised,
            "chained_s": t_chained,
            "speedup": t_materialised / t_chained,
        }
        chain_db.close()
        plain_db.close()
        del chain_db, plain_db
    wide_chain = report["join_chain"]["wide"]
    assert wide_chain["chained_s"] <= wide_chain["materialising_s"] * 0.95

    # -- LEFT JOIN inside the chain: chained outer join vs materialising ---
    # The compose-shaped tail (join -> left outer join -> DISTINCT): the
    # outer join's null-extended rows ride the composed row maps as a
    # validity mask instead of materialising the padded intermediate.
    left_chain_query = (
        "select distinct rv.rep as v1, lj.rep as v2 from graph2 "
        "join reps as rv on (graph2.v2 = rv.v) "
        "left outer join reps as lj on (rv.rep = lj.v)")
    report["left_chain"] = {"rows": n_fuse}
    for shape, payload in (("contract", 0), ("wide", 4)):
        lc_db = fusion_db(True, payload)
        lp_db = fusion_db(False, payload)
        chained_rel = lc_db.execute(left_chain_query).relation
        plain_rel = lp_db.execute(left_chain_query).relation
        for name_f, name_p in zip(chained_rel.names, plain_rel.names):
            mine = chained_rel.column(name_f)
            theirs = plain_rel.column(name_p)
            assert np.array_equal(mine.null_mask(), theirs.null_mask())
            valid = ~mine.null_mask()
            assert np.array_equal(mine.values[valid], theirs.values[valid])
        t_left_chained, t_left_plain = best_of_pair(
            lambda: lc_db.execute(left_chain_query),
            lambda: lp_db.execute(left_chain_query))
        assert lc_db.stats.left_chain_fusions > 0
        assert lp_db.stats.left_chain_fusions == 0
        report["left_chain"][shape] = {
            "materialising_s": t_left_plain,
            "chained_s": t_left_chained,
            "speedup": t_left_plain / t_left_chained,
        }
        lc_db.close()
        lp_db.close()
        del lc_db, lp_db
    wide_left = report["left_chain"]["wide"]
    assert wide_left["chained_s"] <= wide_left["materialising_s"] * 0.95

    # -- hash DISTINCT: unpackable sparse pairs vs the lexsort reference ---
    # Two full-range 64-bit key columns defeat the int-pair packing, which
    # used to mean a lexsort over every row; the hash kernel value-sorts
    # one packed (hash prefix, row) word per row and compares keys only
    # between neighbours.
    n_hash = SIZES[-1]
    hash_rng = np.random.default_rng(14)
    report["hash_distinct"] = {"rows": n_hash}
    for shape, dup in (("unique_heavy", 0.0), ("duplicate_heavy", 0.9)):
        n_base = max(int(n_hash * (1 - dup)), 1)
        base_a = hash_rng.integers(0, 2 ** 62, n_base)
        base_b = hash_rng.integers(0, 2 ** 62, n_base)
        pick = hash_rng.integers(0, n_base, n_hash)
        pair = [Column(base_a[pick], INT64), Column(base_b[pick], INT64)]
        note: list = []
        got = distinct_rows(pair, note=note)
        assert note == ["hash"]
        assert np.array_equal(got, reference_distinct(pair))
        t_lexsort = best_of(lambda: reference_distinct(pair))
        t_hash_pair = best_of(lambda: distinct_rows(pair))
        report["hash_distinct"][shape] = {
            "lexsort_s": t_lexsort,
            "hash_s": t_hash_pair,
            "speedup": t_lexsort / t_hash_pair,
        }
    assert report["hash_distinct"]["duplicate_heavy"]["speedup"] >= 1.2

    # -- segment-parallel kernels vs single-threaded references -----------
    n_par = SIZES[-1]
    n_workers = min(4, os.cpu_count() or 1)
    pool = SegmentPool(4, max_workers=4)
    prng = np.random.default_rng(21)
    par_left = Column(prng.integers(0, n_par, n_par), INT64)
    par_right = Column(
        np.concatenate([
            prng.permutation(n_par),
            prng.integers(0, n_par, n_par // 8),
        ]).astype(np.int64), INT64)
    ref_join = join_indices([par_left], [par_right])
    par_join = parallel_join_indices([par_left], [par_right], pool)
    assert np.array_equal(ref_join[0], par_join[0])
    assert np.array_equal(ref_join[1], par_join[1])
    t_join_single = best_of(lambda: join_indices([par_left], [par_right]))
    t_join_parallel = best_of(
        lambda: parallel_join_indices([par_left], [par_right], pool))

    agg_keys = prng.integers(0, 10_000, n_par)
    agg_values = prng.integers(-1000, 1000, n_par)
    specs = [AggregateSpec("count*"),
             AggregateSpec("min", agg_values, None, INT64),
             AggregateSpec("sum", agg_values, None, INT64)]
    ref_agg = group_aggregate(agg_keys, specs)
    par_agg = parallel_group_aggregate(agg_keys, specs, pool)
    assert np.array_equal(ref_agg[0], par_agg[0])
    for (ref_vals, _), (par_vals, _) in zip(ref_agg[1], par_agg[1]):
        assert np.array_equal(ref_vals, par_vals)
    t_agg_single = best_of(lambda: group_aggregate(agg_keys, specs))
    t_agg_parallel = best_of(
        lambda: parallel_group_aggregate(agg_keys, specs, pool))

    # Chunked probe of a cached sorted index (the warm-loop case): sparse
    # unique build keys force the sorted probe, chunked across the pool.
    sparse_build = Column(prng.permutation(np.arange(n_par) * 9973 + 7), INT64)
    sparse_probe = Column(
        sparse_build.values[prng.integers(0, n_par, n_par)], INT64)
    probe_index = build_key_index(sparse_build.values)
    probe_note: list = []
    ref_probe = join_indices([sparse_probe], [sparse_build],
                             right_index=probe_index)
    par_probe = parallel_join_indices([sparse_probe], [sparse_build], pool,
                                      probe_note, right_index=probe_index)
    assert probe_note == ["parallel-probe"]
    assert np.array_equal(ref_probe[0], par_probe[0])
    assert np.array_equal(ref_probe[1], par_probe[1])
    t_probe_single = best_of(
        lambda: join_indices([sparse_probe], [sparse_build],
                             right_index=probe_index))
    t_probe_parallel = best_of(
        lambda: parallel_join_indices([sparse_probe], [sparse_build], pool,
                                      right_index=probe_index))

    report["parallel"] = {
        "rows": n_par,
        "cpu_count": os.cpu_count(),
        "workers": pool.n_workers,
        "join_single_s": t_join_single,
        "join_parallel_s": t_join_parallel,
        "join_speedup": t_join_single / t_join_parallel,
        "aggregate_single_s": t_agg_single,
        "aggregate_parallel_s": t_agg_parallel,
        "aggregate_speedup": t_agg_single / t_agg_parallel,
        "indexed_probe_single_s": t_probe_single,
        "indexed_probe_parallel_s": t_probe_parallel,
        "indexed_probe_speedup": t_probe_single / t_probe_parallel,
    }
    if n_workers >= 4:
        # The acceptance bar applies on multi-core runners; single-core
        # hosts record the (necessarily ~1x) numbers informationally.
        assert report["parallel"]["join_speedup"] >= 1.5
        assert report["parallel"]["aggregate_speedup"] >= 1.5
        assert report["parallel"]["indexed_probe_speedup"] >= 1.3

    # -- GROUP BY sort skip over a pre-sorted stored column ----------------
    grng = np.random.default_rng(2)
    group_keys_sorted = np.repeat(np.arange(n_par // 4, dtype=np.int64), 4)
    weights = grng.integers(0, 1000, n_par)
    sorted_db = Database(n_segments=4)
    sorted_db.load_table("s", {"v": group_keys_sorted, "w": weights})
    group_query = "select v, count(*) c, min(w) lo, sum(w) s from s group by v"
    sorted_db.execute(group_query)  # warms the index
    t_presorted = best_of(lambda: sorted_db.execute(group_query))
    unsorted_db = Database(n_segments=4)
    shuffle = grng.permutation(n_par)
    unsorted_db.load_table("u", {"v": group_keys_sorted[shuffle],
                                 "w": weights[shuffle]})
    unsorted_query = "select v, count(*) c, min(w) lo, sum(w) s from u group by v"
    unsorted_db.execute(unsorted_query)
    t_shuffled = best_of(lambda: unsorted_db.execute(unsorted_query))
    assert sorted_db.stats.group_sorts_skipped > 0
    report["group_sort_skip"] = {
        "rows": n_par,
        "presorted_s": t_presorted,
        "shuffled_s": t_shuffled,
        "speedup": t_shuffled / t_presorted,
    }

    # -- process backend: end-to-end RC, threads vs worker processes -------
    # The tentpole measurement: the same contraction run with the kernels
    # dispatched to worker processes over shared-memory columns.  On
    # multi-core runners a 1e6-edge graph carries the >= 1.25x acceptance
    # bar (threads serialise on the GIL everywhere numpy does not release
    # it); single-core hosts run a smaller graph with a forced pool purely
    # to prove engagement, and record the (necessarily ~1x) numbers
    # informationally.  JSON keys are identical on both paths.
    import repro.sqlengine.executor as executor_module

    if n_workers >= 4:
        proc_edges = gnm_random_graph(400_000, 1_000_000,
                                      np.random.default_rng(41))
        proc_workers, proc_min_rows = None, executor_module.PARALLEL_MIN_ROWS
    else:
        proc_edges = gnm_random_graph(30_000, 55_000,
                                      np.random.default_rng(41))
        proc_workers, proc_min_rows = 4, 1

    def run_backend(backend: str):
        original = executor_module.PARALLEL_MIN_ROWS
        executor_module.PARALLEL_MIN_ROWS = proc_min_rows
        try:
            bdb = Database(n_segments=4, pool_backend=backend,
                           pool_workers=proc_workers, use_index_cache=False)
            load_edges_into(bdb, "edges_pp", proc_edges)
            started = time.perf_counter()
            result = RandomisedContraction().run(bdb, "edges_pp", seed=77)
            elapsed = time.perf_counter() - started
            vertices, labels = result.labels(bdb)
            order = np.argsort(vertices, kind="stable")
            stats = bdb.stats.snapshot()
            shm_names = (bdb.pool.registry.created_names()
                         if bdb.pool.supports_processes else set())
            bdb.close()
            return elapsed, vertices[order], labels[order], stats, shm_names
        finally:
            executor_module.PARALLEL_MIN_ROWS = original

    t_thread_rc, v_th, l_th, stats_th, _ = run_backend("thread")
    t_process_rc, v_pr, l_pr, stats_pr, shm_names = run_backend("process")
    assert np.array_equal(v_th, v_pr) and np.array_equal(l_th, l_pr)
    assert stats_pr.process_tasks > 0          # kernels really crossed
    assert stats_pr.stats_merges > 0           # ... and merged their deltas
    assert stats_th.process_tasks == 0
    # close() must have unlinked every exported block.
    assert not any(os.path.exists(f"/dev/shm/{name}") for name in shm_names)
    report["process_pool"] = {
        "edges": proc_edges.n_edges,
        "thread_s": t_thread_rc,
        "process_s": t_process_rc,
        "speedup": t_thread_rc / t_process_rc,
        "process_tasks": stats_pr.process_tasks,
        "shm_bytes_exported": stats_pr.shm_bytes_exported,
        "cpu_count": os.cpu_count(),
        "workers": proc_workers or min(4, os.cpu_count() or 1),
    }
    if n_workers >= 4:
        assert report["process_pool"]["speedup"] >= 1.25

    # -- end-to-end: Randomised Contraction with and without caches -------
    edges = gnm_random_graph(60_000, 110_000, np.random.default_rng(3))

    def run_rc(use_caches: bool):
        rc_db = Database(n_segments=4, use_plan_cache=use_caches,
                         use_index_cache=use_caches,
                         use_physical_plans=use_caches,
                         use_fusion=use_caches)
        load_edges_into(rc_db, "edges", edges)
        started = time.perf_counter()
        result = RandomisedContraction().run(rc_db, "edges", seed=99)
        elapsed = time.perf_counter() - started
        vertices, labels = result.labels(rc_db)
        order = np.argsort(vertices, kind="stable")
        rc_db.close()
        return elapsed, vertices[order], labels[order], result.stats

    t_on, v_on, l_on, stats_on = run_rc(True)
    t_off, v_off, l_off, _ = run_rc(False)
    assert np.array_equal(v_on, v_off) and np.array_equal(l_on, l_off)
    report["end_to_end_rc"] = {
        "n_vertices": 60_000,
        "n_edges": 110_000,
        "caches_on_s": t_on,
        "caches_off_s": t_off,
        "speedup": t_off / t_on,
        "plan_cache_hits": stats_on.plan_cache_hits,
        "index_cache_hits": stats_on.index_cache_hits,
    }
    # Identical output is a hard guarantee; the wall-clock advantage is
    # asserted with slack for machine noise and reported exactly.
    assert t_on <= t_off * 1.10

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_engine.json").write_text(
        json.dumps(report, indent=2, default=float) + "\n")

    lines = ["ENGINE MICRO-BENCHMARKS (hash kernels vs seed sort-merge)", ""]
    for n, kernels in report["sizes"].items():
        for name, r in kernels.items():
            lines.append(
                f"  {name:<22s} n={n:>9,}  seed {r['seed_s'] * 1e3:8.2f} ms"
                f"  hash {r['hash_s'] * 1e3:8.2f} ms  speedup {r['speedup']:6.1f}x"
            )
    pp = report["physical_plan"]
    fused = report["fused_distinct"]
    fused_g = report["fused_group_by"]
    chain = report["join_chain"]
    left_chain = report["left_chain"]
    dataflow = report["dataflow"]
    hashed = report["hash_distinct"]
    par = report["parallel"]
    skip = report["group_sort_skip"]
    proc = report["process_pool"]
    overlap = report["overlapped_composition"]
    lines += [
        "",
        f"  plan cache hit rate      : {report['plan_cache']['hit_rate']:.3f}"
        f" over {n_statements} statements",
        f"  physical plan hit rate   : {pp['round_loop_hit_rate']:.3f} on the"
        f" warm RC round loop ({pp['round_loop_planned_statements']} planned"
        f" statements; cold run {pp['cold_hit_rate']:.3f})",
        f"  warm-loop kernel proofs  : {pp['rc_hash_distincts']} hash"
        f" DISTINCTs, {pp['rc_parallel_indexed_probes']} parallel indexed"
        f" probes, {pp['rc_parallel_dense_probes']} parallel dense probes,"
        f" {pp['rc_fused_group_pipelines']} fused join->GROUP BYs,"
        f" {pp['rc_join_chain_fusions']} join-chain fusions",
        f"  overlapped composition   : {overlap['rounds_overlapped']} rounds"
        f" overlapped, {t_serial:.3f}s -> {t_overlap:.3f}s"
        f" ({overlap['speedup']:.2f}x, identical labels)",
        f"  fused join->DISTINCT 1e6 : wide"
        f" {fused['wide']['materialising_s'] * 1e3:.1f} ms ->"
        f" {fused['wide']['fused_s'] * 1e3:.1f} ms"
        f" ({fused['wide']['speedup']:.2f}x); contract shape"
        f" {fused['contract']['speedup']:.2f}x",
        f"  fused join->GROUP BY 1e6 : wide"
        f" {fused_g['wide']['materialising_s'] * 1e3:.1f} ms ->"
        f" {fused_g['wide']['fused_s'] * 1e3:.1f} ms"
        f" ({fused_g['wide']['speedup']:.2f}x); contract shape"
        f" {fused_g['contract']['speedup']:.2f}x",
        f"  join-chain fusion 1e6    : wide"
        f" {chain['wide']['materialising_s'] * 1e3:.1f} ms ->"
        f" {chain['wide']['chained_s'] * 1e3:.1f} ms"
        f" ({chain['wide']['speedup']:.2f}x); contract shape"
        f" {chain['contract']['speedup']:.2f}x",
        f"  left-join chain 1e6      : wide"
        f" {left_chain['wide']['materialising_s'] * 1e3:.1f} ms ->"
        f" {left_chain['wide']['chained_s'] * 1e3:.1f} ms"
        f" ({left_chain['wide']['speedup']:.2f}x); contract shape"
        f" {left_chain['contract']['speedup']:.2f}x",
        f"  dataflow scheduler       : {dataflow['overlaps']} overlapped"
        f" statement pairs over {dataflow['composed_rounds']} composed"
        f" rounds ({dataflow['overlaps_per_composed_round']:.1f}/round,"
        f" serial records {dataflow['serial_overlaps']})",
        f"  hash pair-DISTINCT 1e6   : dup-heavy"
        f" {hashed['duplicate_heavy']['lexsort_s'] * 1e3:.1f} ms ->"
        f" {hashed['duplicate_heavy']['hash_s'] * 1e3:.1f} ms"
        f" ({hashed['duplicate_heavy']['speedup']:.2f}x); unique-heavy"
        f" {hashed['unique_heavy']['speedup']:.2f}x",
        f"  parallel join 1e6        : {par['join_single_s'] * 1e3:.1f} ms ->"
        f" {par['join_parallel_s'] * 1e3:.1f} ms"
        f" ({par['join_speedup']:.2f}x, {par['workers']} workers,"
        f" {par['cpu_count']} cpus)",
        f"  parallel aggregate 1e6   : {par['aggregate_single_s'] * 1e3:.1f} ms"
        f" -> {par['aggregate_parallel_s'] * 1e3:.1f} ms"
        f" ({par['aggregate_speedup']:.2f}x)",
        f"  parallel indexed probe   : {par['indexed_probe_single_s'] * 1e3:.1f}"
        f" ms -> {par['indexed_probe_parallel_s'] * 1e3:.1f} ms"
        f" ({par['indexed_probe_speedup']:.2f}x)",
        f"  presorted GROUP BY 1e6   : {skip['shuffled_s'] * 1e3:.1f} ms"
        f" (shuffled) vs {skip['presorted_s'] * 1e3:.1f} ms (sort skipped,"
        f" {skip['speedup']:.2f}x)",
        f"  process-backend RC       : {proc['edges']:,} edges,"
        f" threads {proc['thread_s']:.3f}s -> processes"
        f" {proc['process_s']:.3f}s ({proc['speedup']:.2f}x,"
        f" {proc['process_tasks']} worker tasks,"
        f" {proc['workers']} workers, {proc['cpu_count']} cpus,"
        f" identical labels)",
        f"  end-to-end RC (60k/110k) : {t_off:.3f}s -> {t_on:.3f}s "
        f"({report['end_to_end_rc']['speedup']:.2f}x, identical labels)",
    ]
    emit("BENCH_engine", "\n".join(lines))
