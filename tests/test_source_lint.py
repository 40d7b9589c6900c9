"""Source lints: ``python -O`` strips every ``assert``, so none may carry a
certificate or a check in the package; and no distance computation expands
an exhaustive cloud k!-fold, so only ``enumeration`` and the CLI's unit-row
export read ``unit_points``, and only ``enumeration`` reads ``_full_rows``."""

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


# the modules allowed to name each expansion of a cloud's chamber
EXPANDERS = {"unit_points": {"enumeration", "cli"}, "_full_rows": {"enumeration"}}


def expansion_names(source):
    """The expansion names of EXPANDERS that the source reads or defines."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        name = (node.attr if isinstance(node, ast.Attribute)
                else node.id if isinstance(node, ast.Name)
                else node.name if isinstance(node, ast.FunctionDef) else None)
        if name in EXPANDERS:
            found.add(name)
    return found


def test_only_enumeration_expands_clouds():
    found = {path.stem: expansion_names(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert found["enumeration"] == set(EXPANDERS)
    stray = {(module, name) for module, names in found.items() for name in names
             if module not in EXPANDERS[name]}
    assert stray == set()


def test_expansions_are_caught():
    source = "u = cloud.unit_points()\nrows = cloud._full_rows\nv = _full_rows\n"
    assert expansion_names(source) == {"unit_points", "_full_rows"}
    assert expansion_names("unit_rows(cloud.rows)\n") == set()
