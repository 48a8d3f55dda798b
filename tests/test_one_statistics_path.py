"""Only `information` turns a joint law into statistics.

No other library module imports a private name of `information` (its
entropy, ratio, correlation or resampling helpers), so a second path to
H, I, I/H, correlation or their bootstrap errors cannot quietly return.
"""

import ast
from pathlib import Path

import treefactor

SOURCES = sorted(Path(treefactor.__file__).parent.glob("*.py"))


def _private_information_names(tree: ast.AST) -> list[tuple[int, str]]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in ("information",
                                                                "treefactor.information"):
            found += [(node.lineno, a.name) for a in node.names if a.name.startswith("_")]
        elif (isinstance(node, ast.Attribute) and node.attr.startswith("_")
              and isinstance(node.value, ast.Name) and node.value.id == "information"):
            found.append((node.lineno, node.attr))
    return found


def test_guard_sees_private_imports():
    tree = ast.parse("from .information import _entropy, entropy\ninformation._ratio(1, 2, 3)\n")
    assert _private_information_names(tree) == [(1, "_entropy"), (2, "_ratio")]


def test_no_module_imports_a_private_information_name():
    assert SOURCES
    found = [
        f"{path.name}:{line} {name}"
        for path in SOURCES
        if path.name != "information.py"
        for line, name in _private_information_names(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []
