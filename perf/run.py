"""The RC ladder benchmark's one command.

``python3 perf/run.py --workload W --seed S --seconds T --trace 0|1``
    runs one workload in this process and prints, as its last line, one
    JSON object ``{"correct", "attempted", "failed", "metrics"}`` holding
    every end-to-end metric of BENCHMARK.json (``--trace 0``) or every
    per-layer metric (``--trace 1``).

``python3 perf/run.py [--seed S]``
    runs the suite: every workload, untraced then traced, each pass in its
    own child process one after another (so RSS and caches do not leak
    between them), prints every metric by name with its unit plus
    ``ladder.exponent``, and writes ``perf/out/results.json`` and one
    ``perf/out/trace_<workload>.json`` per workload.

Both exit non-zero when any run raised or labelled wrongly.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perf" / "out"
DEFAULT_SEED = 20200420
#: Metric names, units, bounds and the run length live in one place.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _import_bench():
    """The engine lives under src/; the benchmark's command names no path
    outside perf/, so the import path is completed here."""
    for path in (ROOT / "src", ROOT):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    from perf import bench
    return bench


def env_block(args: argparse.Namespace) -> dict:
    """What the numbers were taken on, and with which arguments."""
    import numpy
    import scipy
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or None
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_commit": commit,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
    }


def with_units(metrics: dict, trace: int) -> dict:
    """Exactly the metrics BENCHMARK.json names, each with its unit."""
    section = SPEC["per_layer" if trace else "end_to_end"]
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in section}


def _print_metrics(prefix: str, metrics: dict) -> None:
    for name, entry in metrics.items():
        value = entry["value"]
        shown = "null" if value is None else f"{value:.6g}"
        print(f"{prefix}{name} = {shown} {entry['unit']}")


def run_one(args: argparse.Namespace) -> int:
    """One workload, one pass, in this process (what the driver runs)."""
    bench = _import_bench()
    result = bench.run_workload(args.workload, args.seed, args.seconds,
                                bool(args.trace), scale=args.scale,
                                reps=args.reps, out_dir=OUT_DIR)
    result["metrics"] = with_units(result["metrics"], args.trace)
    result["env"] = env_block(args)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"{args.workload}.trace{args.trace}.json").write_text(
        json.dumps(result, indent=1))
    for error in result["errors"]:
        print(f"FAILED {args.workload}: {error}", file=sys.stderr)
    _print_metrics(f"{args.workload}.", result["metrics"])
    for name, value in result["base"].items():
        print(f"{args.workload}.base.{name} = {value:.6g}")
    correct = not result["errors"]
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    return 0 if correct else 1


def run_child(workload: str, seed: int, seconds: float, trace: int,
              scale: float = 1.0, reps: Optional[int] = None) -> dict:
    """Run one pass in a child process; its detail file is the result."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--scale", str(scale)]
    if reps is not None:
        command += ["--reps", str(reps)]
    detail = OUT_DIR / f"{workload}.trace{trace}.json"
    detail.unlink(missing_ok=True)
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          check=False)
    if done.returncode not in (0, 1) or not detail.exists():
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode}")
    return json.loads(detail.read_text())


def run_suite(args: argparse.Namespace) -> int:
    results = {"env": env_block(args), "workloads": {}}
    correct = True
    for spec in SPEC["workloads"]:
        name = spec["name"]
        untraced, traced = (run_child(name, args.seed, args.seconds, trace,
                                      args.scale, args.reps)
                            for trace in (0, 1))
        correct &= not (untraced["errors"] or traced["errors"])
        attempted = untraced["attempted"] + traced["attempted"]
        results["workloads"][name] = {
            "end_to_end": untraced["metrics"],
            "per_layer": traced["metrics"],
            "base": untraced["base"],
            "reps": {"warmup": untraced["warmup_reps"],
                     "timed": untraced["base"]["timed_reps"],
                     "untraced_in_traced_pass": traced["base"]["untraced_reps"],
                     "traced": traced["base"]["traced_reps"]},
            "failed_frac": (untraced["failed"] + traced["failed"]) / attempted,
            "errors": untraced["errors"] + traced["errors"],
        }
        print(f"== {name}: {spec['why']}")
        _print_metrics(f"{name}.", untraced["metrics"])
        base = untraced["base"]
        print(f"{name}.run_s = {base['run_s_p50']:.4f} s median "
              f"[{base['run_s_p25']:.4f}, {base['run_s_p75']:.4f}] over "
              f"{base['timed_reps']} reps on {base['edges']} edges")
        print(f"{name}.failed_frac = "
              f"{results['workloads'][name]['failed_frac']:.6g}")
        _print_metrics(f"{name}.", traced["metrics"])
    # The two rungs are ten times apart in |E|; the paper says ~1.
    rungs = [results["workloads"][name]["base"]["run_s_p50"]
             for name in ("gnm_1m", "gnm_100k")]
    results["ladder.exponent"] = math.log10(rungs[0] / rungs[1])
    print(f"ladder.exponent = {results['ladder.exponent']:.4f} "
          f"(log10 of run_s_p50 gnm_1m / gnm_100k)")
    out = OUT_DIR / "results.json"
    out.write_text(json.dumps(results, indent=1))
    print(f"wrote {out}")
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload",
                        choices=[w["name"] for w in SPEC["workloads"]],
                        help="run this one workload in-process "
                             "(default: the whole suite)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                        help="time one pass measures for, once its fixed "
                             "number of runs is made")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every graph (smoke runs)")
    parser.add_argument("--reps", type=int, default=None,
                        help="fixed number of runs per pass (smoke runs)")
    args = parser.parse_args(argv)
    return run_one(args) if args.workload else run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
