"""Every name a library module imports is used in it; the project carries no linter.

`__init__.py` is skipped: its imports are the package's public names.
"""

import ast
from pathlib import Path

import treefactor

SOURCES = sorted(
    path for path in Path(treefactor.__file__).parent.glob("*.py") if path.name != "__init__.py"
)


def _imported_names(tree: ast.Module) -> dict[str, int]:
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def test_library_imports_are_used():
    assert SOURCES
    unused = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            f"{path.name}:{line} {name}"
            for name, line in _imported_names(tree).items()
            if name not in used
        ]
    assert unused == []
