"""Every public function, class, method and property of the library has a
caller outside the tests.

A module-level function or class whose name does not start with ``_`` must
be referenced by name from another library module, from its own module's
code outside its definition, or from a ``bench/*.py`` script.  So must each
public method or property of such a class, and for those only an attribute
read counts: a local variable of the same name calls nothing.  Imports in `__init__.py` do not count: re-exporting a name does
not call it.  The names in ``KEPT`` are the only exceptions.
"""

import ast
from pathlib import Path

import treefactor

LIBRARY = Path(treefactor.__file__).parent
BENCH = Path(__file__).resolve().parent.parent / "bench"

KEPT = {
    "correlation_bound": "the paper's correlation bound; ROADMAP item 4 gives it a caller",
    "empirical_joint": "joint of sample pairs that the tests build fixtures with",
    "dist": "word algebra that the tests use as an oracle",
    "is_palindrome": "word algebra that the tests use as an oracle",
    "word_from_str": "word algebra that the tests use to build fixtures",
    "tree_ball_graph": "finite tree ball that the tests use as an oracle",
    "vertex_at_distance": "tree vertex that the tests use to build fixtures",
}


def _referenced(nodes) -> set[str]:
    """Names read, attributes looked up and names imported among ``nodes``;
    an attribute read ``obj.x`` also adds ``.x``, which is how a method or
    property is referenced."""
    names = set()
    for node in nodes:
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
            if isinstance(node.ctx, ast.Load):
                names.add("." + node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def _public_definitions(tree: ast.Module):
    """(name, node, the reference it needs) of each public top-level function
    and class, and of each public method and property of those classes as
    ``Class.method``, which needs an attribute read."""
    for defn in tree.body:
        if not isinstance(defn, (ast.FunctionDef, ast.ClassDef)) or defn.name.startswith("_"):
            continue
        yield defn.name, defn, defn.name
        if isinstance(defn, ast.ClassDef):
            for method in defn.body:
                if isinstance(method, ast.FunctionDef) and not method.name.startswith("_"):
                    yield f"{defn.name}.{method.name}", method, "." + method.name


def unreferenced(modules: dict[str, ast.Module], callers: set[str]) -> list[str]:
    """The public definitions of ``modules`` that nothing else references.

    ``callers`` holds the names referenced from outside the library.
    """
    nodes = {name: list(ast.walk(tree)) for name, tree in modules.items()}
    found = []
    for name, tree in modules.items():
        others = set(callers)
        for other, other_nodes in nodes.items():
            if other != name:
                others |= _referenced(other_nodes)
        for qualified, defn, reference in _public_definitions(tree):
            inside = {id(node) for node in ast.walk(defn)}
            own = _referenced(node for node in nodes[name] if id(node) not in inside)
            if reference not in others | own:
                found.append(f"{name}:{defn.lineno} {qualified}")
    return found


def test_guard_catches_a_planted_unreferenced_function():
    modules = {
        "a.py": ast.parse("def used():\n    pass\n\ndef planted():\n    return planted()\n"),
        "b.py": ast.parse("from .a import used\n\nclass Local:\n    pass\n\nLocal()\n"),
    }
    assert unreferenced(modules, set()) == ["a.py:4 planted"]
    assert unreferenced(modules, {"planted"}) == []


def test_guard_catches_a_planted_unreferenced_method():
    source = (
        "class Graph:\n"
        "    def edges(self):\n        return self.planted\n\n"
        "    @property\n    def planted(self):\n        return self.planted\n\n"
        "    def _private(self):\n        pass\n\n"
        "def build():\n    return Graph().edges()\n\n"
        "build()\n"
    )
    modules = {"a.py": ast.parse(source)}
    assert unreferenced(modules, set()) == []
    modules = {"a.py": ast.parse(source.replace("return self.planted\n\n    @", "pass\n\n    @"))}
    assert unreferenced(modules, set()) == ["a.py:6 Graph.planted"]
    assert unreferenced(modules, {".planted"}) == []


def test_guard_ignores_a_local_variable_named_like_a_method():
    source = (
        "class Graph:\n"
        "    def edges(self):\n        return []\n\n"
        "    def degree(self):\n        return 3\n\n"
        "def build():\n"
        "    edges = [(0, 1)]\n    graph = Graph()\n    graph.edges = edges\n"
        "    return graph.degree(), edges\n\n"
        "build()\n"
    )
    modules = {"a.py": ast.parse(source)}
    assert unreferenced(modules, set()) == ["a.py:2 Graph.edges"]
    assert unreferenced(modules, {"edges"}) == ["a.py:2 Graph.edges"]
    assert unreferenced(modules, {".edges"}) == []


def test_every_public_name_has_a_caller():
    def parse(paths):
        return {path.name: ast.parse(path.read_text(), str(path)) for path in paths}

    library = parse(path for path in sorted(LIBRARY.glob("*.py")) if path.name != "__init__.py")
    bench = parse(sorted(BENCH.glob("*.py")))
    assert library and bench
    callers = set().union(*(_referenced(ast.walk(tree)) for tree in bench.values()))
    found = unreferenced(library, callers)
    assert [entry for entry in found if entry.split()[-1] not in KEPT] == []
    # A kept name that gains a caller, or disappears, leaves KEPT.
    assert {entry.split()[-1] for entry in found} == set(KEPT)
