"""Source lints: ``python -O`` strips every ``assert``, so none may carry a
certificate or a check in the package."""

import ast
from pathlib import Path

import directions

PACKAGE = Path(directions.__file__).resolve().parent


def assert_lines(source):
    """Line numbers of the ``assert`` statements in the source."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Assert)]


def test_package_has_no_assert():
    found = {path.name: assert_lines(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert len(found) > 1
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_asserts_are_caught():
    assert assert_lines("x = 1\nif x:\n    assert x, 'msg'\n") == [3]
