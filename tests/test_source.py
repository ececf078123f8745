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
