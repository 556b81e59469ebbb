"""E-SP — Section VII-C: database vs Spark SQL, and the Cracker comparison.

The paper runs Randomised Contraction on Lulli et al.'s hardest dataset
("Streets of Italy": RC in-database 143 s vs Cracker-in-database 261 s vs
the published Spark Cracker 1338 s), and separately measures the same RC
SQL running ~2.3x slower on Spark SQL than in-database.

This bench reproduces both comparisons on the streets substitute: RC vs
Cracker on the MPP engine, and RC on the MPP engine vs the modelled Spark
backend.  The seconds and their ratio are *reported*
(``benchmarks/results/spark_vs_db.txt``); the asserts are on what the
differences are made of — bytes written, held and moved, statements issued
— which a busy machine cannot move.
"""

from repro.bench import Harness
from repro.spark import SparkSQLDatabase

from .conftest import emit


def test_streets_rc_beats_cracker_and_spark_is_slower(benchmark):
    dataset = "streets_of_italy"
    reps = 3  # sub-second runs are noise-dominated; take best-of
    # The RC-vs-Cracker gap is asymptotic (per-query overhead dominates on
    # tiny inputs, and RC issues ~2x the statements); at the default half
    # scale the two are within noise of each other.  This comparison runs
    # its own full-scale harness, where RC wins by ~1.5x reproducibly.
    harness = Harness(scale=1.0)

    def run_all():
        # The three configurations alternate within each repetition, so a
        # slow spell of the machine falls on all of them, not on one.
        runs = [
            (harness.run_once(dataset, "rc", seed_offset=1),
             harness.run_once(dataset, "cr", seed_offset=1),
             harness.run_once(dataset, "rc", seed_offset=1,
                              db_factory=_spark_factory))
            for _ in range(reps)
        ]
        return tuple(min(outcomes, key=lambda o: o.seconds)
                     for outcomes in zip(*runs))

    rc_db, cr_db, rc_spark = benchmark.pedantic(run_all, rounds=1, iterations=1)
    assert rc_db.ok and cr_db.ok and rc_spark.ok
    assert rc_db.n_components == cr_db.n_components == rc_spark.n_components

    # Paper shape 1: RC in-database beats the Cracker port (143 s vs
    # 261 s): it writes, holds and moves less data.
    assert rc_db.written_bytes < cr_db.written_bytes
    assert rc_db.peak_bytes < cr_db.peak_bytes
    assert rc_db.motion_bytes < cr_db.motion_bytes

    # Paper shape 2: the same SQL on the Spark model is slower (x2.3 in the
    # paper): statement for statement the same tables, but every keyed
    # operator shuffles its whole input.
    assert rc_spark.sql_queries == rc_db.sql_queries
    assert rc_spark.written_bytes == rc_db.written_bytes
    assert rc_spark.motion_bytes > rc_db.motion_bytes
    ratio = rc_spark.seconds / rc_db.seconds

    emit("spark_vs_db", "\n".join([
        "SECTION VII-C - EXECUTION ENVIRONMENTS (streets-of-italy substitute)",
        "",
        f"  RC  in-database : {rc_db.seconds:7.2f}s   (paper: 143 s)",
        f"  CR  in-database : {cr_db.seconds:7.2f}s   (paper: 261 s)",
        f"  RC  on Spark SQL: {rc_spark.seconds:7.2f}s",
        "",
        f"  Spark/in-db ratio for identical SQL: {ratio:.2f}x "
        "(paper: ~2.3x)",
        f"  extra data motion on Spark: "
        f"{rc_spark.motion_bytes / max(rc_db.motion_bytes, 1):.1f}x",
    ]))


def _spark_factory(n_segments=4, space_budget_bytes=None):
    return SparkSQLDatabase(
        n_segments=n_segments, space_budget_bytes=space_budget_bytes
    )
