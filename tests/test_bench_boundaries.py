"""Every call site that the benchmark's tracer wraps must exist.

``bench/tracing.py`` replaces each ``(module, attribute)`` of its
``BOUNDARIES`` for the length of a traced pass and stops the run when one
is missing, so renaming or deleting one of these attributes breaks
``bench/run.py --trace 1``.  This test catches that without running the
benchmark, and likewise every ``treefactor`` name that a ``bench/*.py``
script imports or reads off an imported ``treefactor`` module: the
benchmark never runs ``make_reference.py``.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACING_PATH = BENCH / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while building
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_boundary_resolves_to_a_callable(tracing):
    sites = [site for boundary in tracing.BOUNDARIES for site in boundary.sites]
    assert sites
    for module_name, attr in sites:
        fn = getattr(importlib.import_module(module_name), attr, None)
        assert callable(fn), f"traced boundary {module_name}.{attr} is missing"


def bench_library_names(tree: ast.Module) -> list[tuple[str, str]]:
    """(module, name) for each ``from treefactor.X import name`` and each
    attribute read off a name bound by ``import treefactor...``."""
    found, modules = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "treefactor":
            found += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "treefactor":
                    # ``import treefactor.cli`` binds ``treefactor``; ``as cli`` binds the submodule.
                    bound = alias.asname or "treefactor"
                    modules[bound] = alias.name if alias.asname else "treefactor"
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            found.append((modules[node.value.id], node.attr))
    return found


def test_every_bench_library_name_resolves():
    names = {
        (path.name, module, name)
        for path in sorted(BENCH.glob("*.py"))
        for module, name in bench_library_names(ast.parse(path.read_text(), str(path)))
    }
    assert ("make_reference.py", "treefactor.processes", "gaussian_sign_closed_form") in names
    assert ("jobs.py", "treefactor.processes", "listing_finite_N_mi") in names
    missing = [
        f"{script}: {module}.{name}"
        for script, module, name in sorted(names)
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []

