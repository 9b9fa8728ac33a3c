"""The package's modules import one another one way only, and every
public name, and every optional parameter of a public function, has a
caller outside the tests; no public name is a strategy's own constructor.

Every ``from .x import`` in ``src/vistep``, including those inside
functions, is an edge of the import graph; a cycle would make a module's
import order matter and hide a dependency in a function body.  A public
name that only tests call is a test helper and belongs under ``tests/``;
so does an option that only tests pass.
"""

import ast
import inspect
from pathlib import Path

import vistep
from vistep.estimators import STRATEGIES

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


def library_nodes():
    """Every AST node of the library outside ``__init__.py``, the demos and
    the benchmark."""
    root = SRC.parent.parent
    paths = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    paths += sorted((root / "demos").glob("*.py")) + sorted((root / "perfbench").glob("*.py"))
    for path in paths:
        yield from ast.walk(ast.parse(path.read_text(), filename=str(path)))


def library_references() -> set[str]:
    """Every name the library outside ``__init__.py``, the demos and the
    benchmark refer to: loaded names, attributes and imported names.  A
    definition is not a reference to itself."""
    names = set()
    for node in library_nodes():
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


def module_level_definitions() -> list[str]:
    """``module.name`` for each function or class without a leading
    underscore that a module of ``src/vistep`` defines at its top level."""
    defined = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined.append(f"{path.stem}.{node.name}")
    return defined


def test_every_module_level_name_is_used_outside_the_tests():
    # a name left behind by a refactor survives only as a test-only alias
    references = library_references()
    unused = [name for name in module_level_definitions() if name.split(".")[1] not in references]
    assert unused == [], f"module-level names only the tests use: {unused}"


def test_no_public_name_spells_a_strategy():
    # a strategy is built as EstimatorKind(name, **params), never by a
    # constructor of its own
    assert sorted(set(vistep.__all__) & set(STRATEGIES)) == []


def passed_arguments() -> dict[str, set]:
    """For each called name (``f(...)`` or ``x.f(...)``), the positions and
    keywords some library call passes.  Positions from a ``*args`` on and
    keywords in a ``**kwargs`` are unknown, so they do not count."""
    passed = {}
    for node in library_nodes():
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        got = passed.setdefault(name, set())
        for i, arg in enumerate(node.args):
            if isinstance(arg, ast.Starred):
                break
            got.add(i)
        got.update(kw.arg for kw in node.keywords if kw.arg is not None)
    return passed


def unpassed_parameters() -> list[str]:
    """``f(param)`` for each parameter with a default of a public function
    that no library call passes, by position or by keyword."""
    passed = passed_arguments()
    unpassed = []
    for name in vistep.__all__:
        func = getattr(vistep, name)
        if not inspect.isfunction(func):
            continue
        got = passed.get(name, set())
        for i, param in enumerate(inspect.signature(func).parameters.values()):
            if param.default is param.empty:
                continue
            by_position = param.kind is param.POSITIONAL_OR_KEYWORD and i in got
            if not (by_position or param.name in got):
                unpassed.append(f"{name}({param.name})")
    return unpassed


def test_every_public_parameter_is_passed_outside_the_tests():
    unpassed = unpassed_parameters()
    assert unpassed == [], f"parameters only the tests pass: {unpassed}"
