"""The package's modules import one another one way only.

Every ``from .x import`` in ``src/vistep``, including those inside
functions, is an edge of the import graph; a cycle would make a module's
import order matter and hide a dependency in a function body.
"""

import ast
from pathlib import Path

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
