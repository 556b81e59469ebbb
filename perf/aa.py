"""A/A check: two sets of runs of the same code must agree within the
benchmark's own bounds on every workload x end-to-end metric.

``python3 perf/aa.py [--seed S]``
    runs every workload untraced, twice over on this checkout, writes
    ``perf/out/aa_1.json`` and ``perf/out/aa_2.json`` and compares them.

``python3 perf/aa.py A.json B.json``
    compares two result files (these, or the suite's ``results.json``).

Exits 1 when a pair differs by more than its bound, 2 when the two files
were taken on different core counts and so must not be compared.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perf import run  # noqa: E402


def measure(seed: int, out: Path) -> dict:
    """One set: every workload, untraced, each in its own child process."""
    seconds = run.SPEC["run_seconds"]
    results = {"workloads": {}}
    for spec in run.SPEC["workloads"]:
        child = run.run_child(spec["name"], seed, seconds, trace=0)
        results["env"] = child["env"]
        if child["errors"]:
            raise RuntimeError(f"{spec['name']}: {child['errors']}")
        results["workloads"][spec["name"]] = {"end_to_end": child["metrics"]}
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1))
    return results


def compare(first: dict, second: dict) -> int:
    cpus = first["env"]["cpu_count"], second["env"]["cpu_count"]
    if cpus[0] != cpus[1]:
        print(f"refusing to compare: cpu_count {cpus[0]} vs {cpus[1]}",
              file=sys.stderr)
        return 2
    worst = 0
    print(f"{'workload':20s} {'metric':17s} {'first':>12s} {'second':>12s} "
          f"{'diff':>8s} {'bound':>6s}")
    for spec in run.SPEC["workloads"]:
        name = spec["name"]
        for metric in run.SPEC["end_to_end"]:
            a, b = (side["workloads"][name]["end_to_end"][metric["name"]]["value"]
                    for side in (first, second))
            diff = (b - a) / a
            beyond = abs(diff) > metric["bound"]
            worst |= beyond
            print(f"{name:20s} {metric['name']:17s} {a:12.6g} {b:12.6g} "
                  f"{diff:+8.2%} {metric['bound']:6.0%}"
                  f"{'  DISAGREE' if beyond else ''}")
    return int(worst)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="*", help="two result files to compare")
    parser.add_argument("--seed", type=int, default=run.DEFAULT_SEED)
    args = parser.parse_args(argv)
    if len(args.files) == 2:
        first, second = (json.loads(Path(f).read_text()) for f in args.files)
    elif not args.files:
        first = measure(args.seed, run.OUT_DIR / "aa_1.json")
        second = measure(args.seed, run.OUT_DIR / "aa_2.json")
    else:
        parser.error("give two result files, or none to measure")
    return compare(first, second)


if __name__ == "__main__":
    sys.exit(main())
