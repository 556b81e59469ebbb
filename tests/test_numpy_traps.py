"""Guards against numpy calls that are correct but slow on large input.

``np.unique(x)`` with no ``return_*`` argument sorts and then goes through
a general path over 20x slower than a sort and a neighbour diff on 2M
int64 values; ``np.unique(x, axis=0)`` on rows is slower still.  Inside
the package every distinct-values call goes through
``repro.graphs.edgelist.sorted_unique`` (or keeps a ``return_*`` argument,
whose result the caller needs); this walks the source and fails on any
other ``np.unique`` call.
"""

import ast
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).resolve().parent
RETURNS = {"return_index", "return_inverse", "return_counts"}


def _is_np_unique(call: ast.Call) -> bool:
    func = call.func
    return (isinstance(func, ast.Attribute) and func.attr == "unique"
            and isinstance(func.value, ast.Name)
            and func.value.id in ("np", "numpy"))


def _bare_unique_calls(source: str, name: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source, filename=name)):
        if isinstance(node, ast.Call) and _is_np_unique(node):
            if not RETURNS & {keyword.arg for keyword in node.keywords}:
                found.append(f"{name}:{node.lineno}")
    return found


def test_no_bare_np_unique_in_the_package():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        found += _bare_unique_calls(path.read_text(),
                                    str(path.relative_to(PACKAGE.parent)))
    assert not found, (
        "bare np.unique (use graphs.edgelist.sorted_unique): "
        + ", ".join(found))


def test_the_guard_sees_the_forms_it_forbids():
    assert _bare_unique_calls("np.unique(x)", "a") == ["a:1"]
    assert _bare_unique_calls("numpy.unique(x, axis=0)", "a") == ["a:1"]
    assert _bare_unique_calls("np.unique(x, return_counts=True)", "a") == []
    assert _bare_unique_calls("np.unique(x, return_inverse=True)", "a") == []
    assert _bare_unique_calls("other.unique(x)", "a") == []
