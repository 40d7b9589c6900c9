"""The references in ``tests/oracles.py`` share no private code with the
package they check: a private helper used by both would pass its own bugs."""

import ast
from pathlib import Path

ORACLES = Path(__file__).with_name("oracles.py")


def private_names(source):
    """Dotted names of every ``_``-prefixed name the source imports from the
    ``directions`` package, or reads as an attribute of a name it imports
    from there."""
    tree = ast.parse(source)
    found, imported = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "directions":
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append(f"{node.module}.{alias.name}")
                imported.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "directions":
                    if any(part.startswith("_") for part in parts):
                        found.append(alias.name)
                    imported.add((alias.asname or alias.name).split(".")[0])
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in imported:
                found.append(ast.unparse(node))
    return found


def test_oracles_import_no_private_name():
    assert private_names(ORACLES.read_text(encoding="utf-8")) == []


def test_private_names_are_caught():
    source = "\n".join([
        "import directions.construction",
        "from directions.enumeration import _ITER_ROWS, directions",
        "from directions.construction import _scale_ratio as ratio",
        "from directions import core",
        "x = directions.construction._distance_to_target",
        "y = core._bracket",
        "from numpy import _private",
    ])
    assert private_names(source) == [
        "directions.enumeration._ITER_ROWS",
        "directions.construction._scale_ratio",
        "directions.construction._distance_to_target",
        "core._bracket",
    ]
