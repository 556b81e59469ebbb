"""``scripts/perf_ab.py --interleaved``: two trees' engines in one process.

The interleaved A/B imports a second tree's ``src/repro`` as package
``repro_base`` beside ``repro``.  That only measures the second tree if
none of its modules reaches for ``repro`` by absolute name — which would
load the working tree's module into the base side.
"""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"


def _absolute_self_imports(path: Path) -> list[str]:
    """``import repro...`` / ``from repro... import`` statements, and
    ``import_module("repro...")`` calls, in one source file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        elif (isinstance(node, ast.Call) and node.args
              and isinstance(node.args[0], ast.Constant)
              and isinstance(node.args[0].value, str)
              and getattr(node.func, "attr",
                          getattr(node.func, "id", "")) in (
                  "import_module", "__import__")):
            names = [node.args[0].value]
        else:
            continue
        found += [f"{path.relative_to(ROOT)}:{node.lineno} {name}"
                  for name in names
                  if name == "repro" or name.startswith("repro.")]
    return found


def test_repro_imports_itself_only_relatively():
    offenders = [found for path in sorted(PACKAGE.rglob("*.py"))
                 for found in _absolute_self_imports(path)]
    assert offenders == []


@pytest.fixture()
def perf_ab():
    """``scripts/perf_ab.py`` with this tree imported a second time as its
    base package, which is unloaded afterwards."""
    spec = importlib.util.spec_from_file_location(
        "perf_ab", ROOT / "scripts" / "perf_ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    try:
        module.import_base(ROOT)
        yield module
    finally:
        for name in [name for name in sys.modules
                     if name.split(".")[0] == module.BASE_PACKAGE]:
            del sys.modules[name]


def test_interleaved_ab_of_a_tree_against_itself(perf_ab, capsys):
    """An A/A at a small scale: the tree imported a second time as the
    base package runs its own module objects, and both sides store the
    same result tables on every run."""
    import repro.sqlengine

    base = importlib.import_module(f"{perf_ab.BASE_PACKAGE}.sqlengine")
    assert base.Database is not repro.sqlengine.Database
    assert perf_ab.run_interleaved("small_2k", pairs=2, seed=3, scale=0.05)
    out = capsys.readouterr().out
    assert "small_2k change wins" in out
    assert "small_2k stage contract" in out
    assert "result tables identical on every run: True" in out


def test_grid_ab_of_a_tree_against_itself(perf_ab, capsys):
    """The Table III grid A/A at a tiny scale: every cell of both sides
    agrees on its labels, statements and bytes — the path dataset's HM and
    CR cells by failing alike — and every algorithm gets its totals."""
    assert perf_ab.run_grid(pairs=1, scale=0.01,
                            datasets=["candels10", "path100m"])
    out = capsys.readouterr().out
    assert "grid path100m          hm       did not finish" in out
    for name in perf_ab.GRID_ALGORITHMS:
        assert f"grid total {name:<8} change" in out
    assert "grid candels10         HM/RC" in out
    assert "grid cells identical on every round: True" in out


def test_grid_cell_summary_reads_the_spread():
    """A cell's line gives both sides' median and quartiles over the
    rounds, the rounds the change ran faster, and ``~`` exactly when the
    change's median lies within the base's quartiles."""
    spec = importlib.util.spec_from_file_location(
        "perf_ab", ROOT / "scripts" / "perf_ab.py")
    perf_ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(perf_ab)
    base = [0.010, 0.011, 0.012]
    assert perf_ab.cell_summary(base, [0.008, 0.0085, 0.009]) == (
        "base      11.0 ms [10.5, 11.5]  change       8.5 ms [8.2, 8.8]  "
        "ratio 0.773x  wins 3/3")
    assert perf_ab.cell_summary(base, [0.0112, 0.0108, 0.0125]) == (
        "base      11.0 ms [10.5, 11.5]  change      11.2 ms [11.0, 11.8]  "
        "ratio 1.018x  wins 1/3  ~")
    # The quartiles' ends count as within them.
    assert perf_ab.cell_summary(base, [0.0115, 0.0115, 0.0115]).endswith(
        "wins 1/3  ~")
    assert perf_ab.cell_summary([0.002], [0.001]).endswith("wins 1/1")
