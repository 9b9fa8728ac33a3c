"""The package's modules import one another one way only, and every
public name has a caller outside the tests.

Every ``from .x import`` in ``src/vistep``, including those inside
functions, is an edge of the import graph; a cycle would make a module's
import order matter and hide a dependency in a function body.  A public
name that only tests call is a test helper and belongs under ``tests/``.
"""

import ast
from pathlib import Path

import vistep

SRC = Path(__file__).resolve().parent.parent / "src" / "vistep"


def import_graph() -> dict[str, set[str]]:
    graph = {}
    for path in sorted(SRC.glob("*.py")):
        edges = set()
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                # "from . import x" names modules; "from .x import y" names one
                edges |= {a.name for a in node.names} if node.module is None else {node.module.split(".")[0]}
        graph[path.stem] = edges
    return graph


def find_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One import cycle as a closed path of module names, or None."""
    done, path = set(), []

    def visit(mod):
        if mod in path:
            return path[path.index(mod) :] + [mod]
        if mod in done:
            return None
        path.append(mod)
        for dep in sorted(graph.get(mod, ())):
            cycle = visit(dep)
            if cycle:
                return cycle
        path.pop()
        done.add(mod)
        return None

    for mod in sorted(graph):
        cycle = visit(mod)
        if cycle:
            return cycle
    return None


def test_find_cycle_reports_a_closed_path():
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": set()}) is None
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]


def test_import_graph_has_no_cycle():
    graph = import_graph()
    assert {"core", "problems", "estimators", "solver", "metrics", "cli"} <= graph.keys()
    assert find_cycle(graph) is None, find_cycle(graph)


def library_references() -> set[str]:
    """Every name the library outside ``__init__.py``, the demos and the
    benchmark refer to: loaded names, attributes and imported names.  A
    definition is not a reference to itself."""
    root = SRC.parent.parent
    paths = [p for p in SRC.glob("*.py") if p.name != "__init__.py"]
    paths += sorted((root / "demos").glob("*.py")) + sorted((root / "perfbench").glob("*.py"))
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def test_every_public_name_is_used_outside_the_tests():
    unused = sorted(set(vistep.__all__) - {"__version__"} - library_references())
    assert unused == [], f"public names only the tests use: {unused}"
