"""The package's modules import one another one way only, and every
public name, and every optional parameter of a public function, has a
caller outside the tests; no public name is a strategy's own constructor;
every def and lambda of the package runs from a CLI command or a demo.

Every ``from .x import`` in ``src/vistep``, including those inside
functions, is an edge of the import graph; a cycle would make a module's
import order matter and hide a dependency in a function body.  A public
name that only tests call is a test helper and belongs under ``tests/``;
so does an option that only tests pass.
"""

import ast
import functools
import inspect
import runpy
import sys
import types
from pathlib import Path

import vistep
from vistep import cli
from vistep.estimators import KINDS, STRATEGIES, Strategy

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


# the parameters of each row callable, as the Strategy field comments document them
ROW_PARAMETERS = {
    "draw": ("kind", "p", "rng", "n"),
    "diff": ("kind", "p", "s", "z", "snap"),
    "correct": ("kind", "p", "o", "diff", "fw"),
    "refresh": ("kind", "p", "w"),
}


def test_every_row_callable_takes_the_documented_parameters():
    # a row's functions take what they read and return their bill: a new
    # row cannot bring back a cost ledger argument
    documented = inspect.getsource(Strategy)
    for field, params in ROW_PARAMETERS.items():
        assert f"# ({', '.join(params)}) ->" in documented, field
        for name, strat in STRATEGIES.items():
            func = getattr(strat, field)
            if func is not None:
                assert tuple(inspect.signature(func).parameters) == params, (name, field)


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


PKG = Path(vistep.__file__).resolve().parent
DEMOS = SRC.parent.parent / "demos"

GAME = "problem.kind = pvb\nproblem.n = 3\nproblem.seed = 1\n"
GRID_GAME = "problem.kind = pvb\nproblem.n = 23\nrun.estimator = coord\nrun.K = 3\n"
QUADRATIC = "problem.kind = quadratic\nproblem.d = 8\nproblem.mu = 0.5\nproblem.L = 2.0\nrun.regime = sm\n"
MIXING = QUADRATIC.replace("quadratic", "mixing") + "problem.workers = 3\nproblem.lambda = 1.0\n"
SETTINGS = "run.K = 4\nrun.sigma = 0.1\nrun.randk_k = 3\n"
# each problem runs every strategy it accepts twice: with the identity
# quantizer and uniform weights, and with a randk quantizer and Lipschitz weights
KNOBS = ("", "run.quantizer = randk\nrun.weights = lipschitz\n")


def source_functions() -> dict:
    """Every def and lambda of the imported package, as its code object
    mapped to ``module.qualname:line``.  The modules are compiled afresh
    from their files, which gives code objects equal to the ones they run."""
    found = {}
    for path in sorted(PKG.glob("*.py")):
        stack = [compile(path.read_text(), str(path), "exec", dont_inherit=True)]
        while stack:
            code = stack.pop()
            stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
            # a class body or a comprehension is not a def or lambda
            if code.co_flags & inspect.CO_OPTIMIZED and (code.co_name == "<lambda>" or code.co_name[0] != "<"):
                name = getattr(code, "co_qualname", code.co_name)  # co_qualname is new in Python 3.11
                found[code] = f"{path.stem}.{name}:{code.co_firstlineno}"
    return found


def run_every_entry_point(tmp: Path) -> None:
    """The CLI's commands on tiny configs, then the demos, in this process."""
    pvb = [k for k in KINDS if k != "local"]
    for problem, kinds in ((GAME, pvb), (QUADRATIC, pvb), (MIXING, KINDS)):
        for knobs in KNOBS:
            cfg, trace = tmp / "cfg.txt", str(tmp / "trace.csv")
            names = ",".join(kinds)
            text = problem + SETTINGS + knobs + f"sweep.estimators = {names}\nverify.estimators = {names}\n"
            cfg.write_text(text + "verify.n_points = 1\n")
            assert cli.main(["gen", "-c", str(cfg)]) == 0
            assert cli.main(["sweep", "-c", str(cfg), "-o", str(tmp / "sweep.csv")]) == 0
            assert cli.main(["verify", "-c", str(cfg)]) == 0
            cfg.write_text(text + "verify.n_points = 1\nverify.n_samples = 50\n")
            assert cli.main(["verify", "-c", str(cfg)]) == 0
            for name in kinds:
                cfg.write_text(text + f"run.estimator = {name}\n")
                assert cli.main(["run", "-c", str(cfg), "-o", trace]) == 0
                assert cli.main(["report", "-i", trace]) == 0
    cfg = tmp / "grid.txt"
    cfg.write_text(GRID_GAME)
    assert cli.main(["run", "-c", str(cfg), "-o", str(tmp / "grid.csv")]) == 0
    # coord's projections all keep the whole block; fulldet's verifier points
    # reach the rest of the per-block rule
    cfg.write_text(GRID_GAME + "verify.estimators = fulldet\nverify.n_points = 1\n")
    assert cli.main(["verify", "-c", str(cfg)]) == 0
    for demo in sorted(DEMOS.glob("*.py")):
        runpy.run_path(str(demo), run_name="__main__")


def clear_caches(modules) -> None:
    """Empty every ``functools.cache``/``lru_cache`` at the top level of the
    modules or in their classes, so that a cached function is entered again
    and not answered from what an earlier caller left."""
    for module in modules:
        for value in list(vars(module).values()):
            for obj in [value, *(vars(value).values() if isinstance(value, type) else ())]:
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def entered_during(run) -> set:
    """The code objects of every Python function entered while run() runs."""
    seen = set()

    def note(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.setprofile(note)
    try:
        run()
    finally:
        sys.setprofile(None)
    return seen


def test_every_function_runs_from_an_entry_point(tmp_path, capsys):
    # a def or lambda in src that no CLI command or demo reaches is code only
    # the tests run, a path the solver, the verifier and the tools left behind
    clear_caches([m for name, m in sys.modules.items() if name.startswith("vistep.")])
    seen = entered_during(lambda: run_every_entry_point(tmp_path))
    capsys.readouterr()
    uncalled = sorted(name for code, name in source_functions().items() if code not in seen)
    assert uncalled == [], f"functions no entry point calls: {uncalled}"


def test_a_cache_an_earlier_caller_filled_still_shows_its_function_run():
    # the reachability check sees a function only when its code is entered;
    # a call answered from the cache enters none, so the check clears caches first
    class Table:
        @functools.lru_cache
        def rows(self, n):
            return n

    module = types.ModuleType("cached")
    module.ranks, module.Table = functools.cache(lambda n: n), Table
    table = Table()
    codes = {module.ranks.__wrapped__.__code__, Table.rows.__wrapped__.__code__}
    assert entered_during(lambda: (module.ranks(3), table.rows(3))) >= codes
    assert not entered_during(lambda: (module.ranks(3), table.rows(3))) & codes
    clear_caches([module])
    assert entered_during(lambda: (module.ranks(3), table.rows(3))) >= codes
