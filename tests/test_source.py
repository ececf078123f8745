import ast
from pathlib import Path

import tlg

SOURCES = sorted(Path(tlg.__file__).parent.glob("*.py"))


def _raises_assertion_error(node) -> bool:
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_assert_statements_in_the_package():
    # `python -O` strips assert statements, and an AssertionError reads as
    # a broken invariant, so no check of the package may rely on either;
    # raise a domain exception instead
    assert SOURCES
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert) or _raises_assertion_error(node)]
    assert found == []


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_no_undeclared_heavy_imports_in_the_package():
    # neither is a declared dependency; sympy only helps to write catalog
    # data offline, and importing numpy alone adds about 14 MiB of memory
    found = [f"{path.name}: {name}"
             for path in SOURCES
             for name in _imported_modules(ast.parse(path.read_text()))
             if name.split(".")[0] in ("sympy", "numpy")]
    assert found == []
