"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``run``
    Compute connected components of a dataset (by registry name or CSV
    edge file) with any algorithm and print the run metrics.

``datasets``
    List the Table II dataset registry, optionally building each at a
    scale to report actual sizes.

``bench``
    Run the Table III/IV/V measurement grid for chosen datasets and
    algorithms and print the paper-style tables.

``sql``
    Ad-hoc SQL over a dataset loaded as ``edges(v1, v2)``, with engine
    cache statistics printed after the run.

``gamma``
    Monte-Carlo contraction-factor measurement (Theorem 1 / Appendix B)
    for a dataset under a randomisation method.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .analysis import bytes_to_human
from .bench import (
    Harness,
    mean_outcomes,
    render_figure6,
    render_table2,
    render_table3,
    render_table4,
    render_table5,
)
from .core import connected_components, count_components, make_algorithm
from .core.contraction_theory import monte_carlo_gamma
from .core.randomised_contraction import RandomisedContraction
from .graphs import TABLE_DATASETS, build_dataset, dataset_names, read_csv
from .graphs.datasets import get_dataset_spec
from .spark import SparkSQLDatabase


def _load_graph(source: str, scale: float):
    """A dataset registry name, or a path to a two-column CSV file."""
    if source in dataset_names():
        return build_dataset(source, scale=scale)
    path = Path(source)
    if path.exists():
        return read_csv(path)
    raise SystemExit(
        f"error: {source!r} is neither a dataset name "
        f"({', '.join(dataset_names())}) nor an existing CSV file"
    )


def _cmd_run(args: argparse.Namespace) -> int:
    edges = _load_graph(args.graph, args.scale)
    if args.algorithm == "rc" and (args.method != "finite-fields"
                                   or args.variant != "fast"):
        algorithm = RandomisedContraction(method=args.method,
                                          variant=args.variant)
    else:
        algorithm = make_algorithm(args.algorithm)
    db = SparkSQLDatabase() if args.backend == "spark" else None
    result = connected_components(
        edges, algorithm, seed=args.seed, db=db, validate=args.validate
    )
    run = result.run
    print(f"graph           : {args.graph}  "
          f"(|V| = {edges.n_vertices:,}, |E| = {edges.n_edges:,})")
    print(f"algorithm       : {run.algorithm} on {args.backend}")
    print(f"components      : {result.n_components:,}")
    print(f"rounds          : {run.rounds}")
    print(f"SQL queries     : {run.sql_queries}")
    print(f"wall time       : {run.elapsed_seconds:.3f}s")
    print(f"data written    : {bytes_to_human(run.stats.bytes_written)}")
    print(f"peak live space : {bytes_to_human(run.stats.peak_live_bytes)}")
    print(f"data motion     : {bytes_to_human(run.stats.motion_bytes)}")
    if args.validate:
        print("validation      : labels match union-find ground truth")
    return 0


def _cmd_datasets(args: argparse.Namespace) -> int:
    if not args.build:
        width = max(len(n) for n in dataset_names())
        for name in dataset_names():
            spec = get_dataset_spec(name)
            print(f"{name:{width}s}  {spec.description}")
        return 0
    rows = []
    for name in TABLE_DATASETS:
        edges = build_dataset(name, scale=args.scale)
        rows.append((name, edges.n_vertices, edges.n_edges,
                     count_components(edges)))
    print(render_table2(rows))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    harness = Harness(scale=args.scale)
    outcomes = mean_outcomes(
        harness.run_suite(
            dataset_names=args.datasets or None,
            algorithms=args.algorithms or None,
            reps=args.reps,
        )
    )
    print(render_table3(outcomes))
    print()
    print(render_table4(outcomes))
    print()
    print(render_table5(outcomes))
    print()
    print(render_figure6(outcomes))
    return 0


def _cmd_sql(args: argparse.Namespace) -> int:
    """Ad-hoc SQL over a dataset loaded as table ``edges(v1, v2)``."""
    from .graphs.io import load_edges_into
    from .sqlengine import Database
    from .sqlengine.errors import SqlError
    from .sqlengine.lexer import split_statements

    edges = _load_graph(args.graph, args.scale)
    db = Database()
    load_edges_into(db, "edges", edges)
    db.stats.reset()
    try:
        statements = split_statements(args.sql)
    except SqlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for statement in statements:
        try:
            result = db.execute(statement)
        except SqlError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if result._relation is None:
            print(f"({result.rowcount} row(s) affected)")
            continue
        relation = result.relation
        # Materialise only the rows being shown.
        shown = result.rows(limit=args.max_rows)
        print("  ".join(relation.display_names))
        for row in shown:
            print("  ".join(str(v) for v in row))
        if relation.n_rows > len(shown):
            print(f"... ({relation.n_rows:,} rows total, "
                  f"showing {len(shown)})")
    stats = db.stats
    print(f"-- {stats.queries} queries, "
          f"plan cache {stats.plan_cache_hits}/{stats.plan_cache_hits + stats.plan_cache_misses} hit, "
          f"index cache {stats.index_cache_hits} hits, "
          f"motion {bytes_to_human(stats.motion_bytes)}")
    if args.stats:
        print(render_engine_stats(stats))
    return 0


def render_engine_stats(stats) -> str:
    """Full EngineStats counter dump for ``repro sql --stats``."""
    planned = stats.physical_plan_hits + stats.physical_plan_misses
    lines = [
        "engine statistics:",
        f"  queries            : {stats.queries}",
        f"  rows written       : {stats.rows_written:,}",
        f"  bytes written      : {bytes_to_human(stats.bytes_written)}",
        f"  peak live space    : {bytes_to_human(stats.peak_live_bytes)}"
        f"  (live now {bytes_to_human(stats.live_bytes)})",
        f"  data motion        : {bytes_to_human(stats.motion_bytes)}"
        f"  (broadcast {bytes_to_human(stats.broadcast_bytes)})",
        f"  plan cache         : {stats.plan_cache_hits} hits / "
        f"{stats.plan_cache_misses} misses",
        f"  physical plans     : {stats.physical_plan_hits} hits / "
        f"{stats.physical_plan_misses} misses / "
        f"{stats.physical_plan_invalidations} invalidated"
        + (f"  (hit rate {stats.physical_plan_hits / planned:.1%})"
           if planned else ""),
        f"  index cache        : {stats.index_cache_hits} hits / "
        f"{stats.index_cache_misses} misses",
        f"  fused pipelines    : {stats.fused_pipelines} DISTINCT / "
        f"{stats.join_chain_fusions} join chains "
        f"({stats.left_chain_fusions} with outer joins)",
        f"  group sorts skipped: {stats.group_sorts_skipped}",
    ]
    return "\n".join(lines)


def _cmd_gamma(args: argparse.Namespace) -> int:
    edges = _load_graph(args.graph, args.scale)
    mean, stderr = monte_carlo_gamma(
        edges, args.method, rounds=args.rounds, seed=args.seed
    )
    bound = "2/3" if args.method == "random-reals" else "3/4"
    print(f"graph   : {args.graph} (|V| = {edges.n_vertices:,})")
    print(f"method  : {args.method}")
    print(f"gamma   : {mean:.4f} +- {stderr:.4f}  over {args.rounds} rounds")
    print(f"bound   : {bound} "
          f"({'OK' if mean <= (2/3 if bound == '2/3' else 3/4) + 0.02 else 'VIOLATED'})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="In-database connected component analysis (ICDE 2020) "
                    "— reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="compute connected components")
    run.add_argument("graph", help="dataset name or CSV edge file")
    run.add_argument("--algorithm", "-a", default="rc",
                     choices=["rc", "hm", "tp", "cr", "bfs", "squaring"])
    run.add_argument("--method", default="finite-fields",
                     choices=["finite-fields", "prime-field", "encryption",
                              "random-reals", "identity"],
                     help="randomisation method (rc only)")
    run.add_argument("--variant", default="fast",
                     choices=["fast", "deterministic-space"],
                     help="RC variant: Figure 4 (fast) or Figure 3")
    run.add_argument("--backend", default="mpp", choices=["mpp", "spark"])
    run.add_argument("--scale", type=float, default=0.25)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--validate", action="store_true",
                     help="check against union-find ground truth")
    run.set_defaults(fn=_cmd_run)

    datasets = sub.add_parser("datasets", help="list or build the registry")
    datasets.add_argument("--build", action="store_true",
                          help="generate each dataset and print Table II")
    datasets.add_argument("--scale", type=float, default=0.25)
    datasets.set_defaults(fn=_cmd_datasets)

    bench = sub.add_parser("bench", help="run the Table III/IV/V grid")
    bench.add_argument("--datasets", nargs="*", default=None)
    bench.add_argument("--algorithms", nargs="*", default=None)
    bench.add_argument("--scale", type=float, default=0.25)
    bench.add_argument("--reps", type=int, default=1)
    bench.set_defaults(fn=_cmd_bench)

    sql = sub.add_parser("sql", help="run ad-hoc SQL over a dataset")
    sql.add_argument("graph", help="dataset name or CSV edge file, loaded "
                                   "as table edges(v1, v2)")
    sql.add_argument("sql", help="semicolon-separated SQL statements")
    sql.add_argument("--scale", type=float, default=0.25)
    sql.add_argument("--max-rows", type=int, default=25,
                     help="rows of each result to materialise and print")
    sql.add_argument("--stats", action="store_true",
                     help="print the full EngineStats counter dump "
                          "(plan/physical-plan/index caches, fused pipelines, "
                          "motion) after execution")
    sql.set_defaults(fn=_cmd_sql)

    gamma = sub.add_parser("gamma", help="measure the contraction factor")
    gamma.add_argument("graph", help="dataset name or CSV edge file")
    gamma.add_argument("--method", default="finite-fields")
    gamma.add_argument("--rounds", type=int, default=16)
    gamma.add_argument("--scale", type=float, default=0.25)
    gamma.add_argument("--seed", type=int, default=0)
    gamma.set_defaults(fn=_cmd_gamma)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
