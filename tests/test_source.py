import ast
from pathlib import Path

import tlg

SOURCES = sorted(Path(tlg.__file__).parent.glob("*.py"))


def test_no_assert_statements_in_the_package():
    # `python -O` strips assert statements, so no check of the package may
    # rely on one; raise a domain exception instead
    assert SOURCES
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
