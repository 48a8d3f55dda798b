"""Every call site that the benchmark's tracer wraps must exist.

``bench/tracing.py`` replaces each ``(module, attribute)`` of its
``BOUNDARIES`` for the length of a traced pass and stops the run when one
is missing, so renaming or deleting one of these attributes breaks
``bench/run.py --trace 1``, and the work counts that it reads off return
values must work on what those calls return.  These tests catch both
without running the benchmark, and likewise every ``treefactor`` name that
a ``bench/*.py`` script imports or reads off an imported ``treefactor``
module: the benchmark never runs ``make_reference.py``.
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


def real_returns():
    """For the first site of each boundary that counts work: a call of that
    function on small inputs, and the count its return value must give."""
    from treefactor import cli, processes
    from treefactor.words import FreeProductSignature

    graph = processes.random_regular_graph(40, 3, seed=1)
    spec = processes.GaussianSignSpec(3, 0.25, 8, tail_tol=None)
    positive = (lambda n: n > 0)
    return {
        ("treefactor.cli", "verify_free_claim"):
            (lambda: cli.verify_free_claim(cli.build_generators(3, 2), 2), positive),
        ("treefactor.cli", "verify_coset_factorization"):
            (lambda: cli.verify_coset_factorization(4, 3, 4), positive),
        # d=3, R=8, k=4: two 766-vertex balls that share 190 vertices.
        ("treefactor.processes", "region_from_balls"):
            (lambda: processes.region_from_balls(FreeProductSignature(0, 3),
                                                 [((), 8), ((1, 2, 1, 2), 8)]),
             (lambda n: n == 1342)),
        ("treefactor.cli", "mc_joint"):
            (lambda: cli.mc_joint(processes.majority_rule(3), 3, 2, 500, 1), (lambda n: n == 500)),
        ("treefactor.cli", "gaussian_sign_measure"):
            (lambda: cli.gaussian_sign_measure(spec, 4, 300, 2), (lambda n: n == 300)),
        ("treefactor.cli", "sparse_set_labeling"):
            (lambda: cli.sparse_set_labeling(graph, 2, 3), positive),
        ("treefactor.cli", "sparse_coloring"):
            (lambda: cli.sparse_coloring(graph, 2, 4), positive),
    }


def test_every_count_reads_a_real_return_value(tracing):
    counted = [boundary for boundary in tracing.BOUNDARIES if boundary.count is not None]
    calls = real_returns()
    assert {boundary.sites[0] for boundary in counted} == set(calls)
    for boundary in counted:
        call, expected = calls[boundary.sites[0]]
        count = boundary.count(call())
        assert isinstance(count, int) and expected(count), boundary.sites[0]


def test_tracer_counts_the_region_vertices(tracing):
    from treefactor import processes

    with tracing.Tracer() as tracer:
        processes._two_balls(3, 8, 4)
    stats = tracing.aggregate(tracer.spans)
    assert stats["tree.region_from_balls"].count == 1342
    assert stats["tree.region_from_balls"].calls == 1


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

