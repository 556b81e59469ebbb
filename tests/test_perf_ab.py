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


def test_interleaved_ab_of_a_tree_against_itself(capsys):
    """An A/A at a small scale: the tree imported a second time as the
    base package runs its own module objects, and both sides store the
    same result tables on every run."""
    import repro.sqlengine

    spec = importlib.util.spec_from_file_location(
        "perf_ab", ROOT / "scripts" / "perf_ab.py")
    perf_ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(perf_ab)
    try:
        perf_ab.import_base(ROOT)
        base = importlib.import_module(f"{perf_ab.BASE_PACKAGE}.sqlengine")
        assert base.Database is not repro.sqlengine.Database
        assert perf_ab.run_interleaved("small_2k", pairs=2, seed=3,
                                       scale=0.05)
    finally:
        for name in [name for name in sys.modules
                     if name.split(".")[0] == perf_ab.BASE_PACKAGE]:
            del sys.modules[name]
    out = capsys.readouterr().out
    assert "small_2k change wins" in out
    assert "small_2k stage contract" in out
    assert "result tables identical on every run: True" in out
