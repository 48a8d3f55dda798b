"""Every call site that the benchmark's tracer wraps must exist.

``bench/tracing.py`` replaces each ``(module, attribute)`` of its
``BOUNDARIES`` for the length of a traced pass and stops the run when one
is missing, so renaming or deleting one of these attributes breaks
``bench/run.py --trace 1``.  This test catches that without running the
benchmark.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


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

