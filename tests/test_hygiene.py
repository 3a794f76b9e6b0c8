"""Static checks: no unused imports in the library and its tests, no import
beyond the standard library and the declared dependencies, no blanket
excepts in the library, one owner for decompositions, for the unit ->
cluster map and for building a normal system, the dense scan of a joint only
where no construction proves it, matrix products of the estimators only
in their row-wise helper and the oracles, no random generator built
inside a loop, no function that
takes both a design and its design matrix, every layer of the benchmark's
tracer names a function the library defines, the benchmark's simulate
arguments parse, and the package's version is pyproject.toml's."""

import ast
import importlib
import inspect
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(path for path in (ROOT / "src" / "dbexp").glob("*.py") if path.name != "__init__.py")
TEST_MODULES = sorted((ROOT / "tests").glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def test_the_scan_sees_the_library():
    assert {path.name for path in MODULES} >= {"design.py", "cli.py", "bounds.py"}
    assert {path.name for path in TEST_MODULES} >= {"conftest.py", "test_bounds.py"}


@pytest.mark.parametrize(
    "path",
    MODULES + TEST_MODULES,
    ids=lambda path: path.name if path.parent.name == "dbexp" else f"tests/{path.name}",
)
def test_every_imported_name_is_used(path):
    tree = _tree(path)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


#: What the library may import besides the standard library: its declared
#: dependencies and itself.  scipy may be installed but is not declared.
DECLARED_IMPORTS = {"numpy", "click", "dbexp"}


@pytest.mark.parametrize("path", MODULES + [ROOT / "src" / "dbexp" / "__init__.py"],
                         ids=lambda path: path.name)
def test_the_library_imports_only_its_declared_dependencies(path):
    tops = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            tops |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            tops.add(node.module.split(".")[0])
    undeclared = sorted(tops - DECLARED_IMPORTS - set(sys.stdlib_module_names))
    assert not undeclared, f"{path.name} imports undeclared packages: {', '.join(undeclared)}"


def _is_blanket(handler: ast.ExceptHandler) -> bool:
    caught = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return any(
        kind is None or (isinstance(kind, ast.Name) and kind.id in ("Exception", "BaseException"))
        for kind in caught
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_blanket_except(path):
    blanket = [
        node.lineno
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.ExceptHandler) and _is_blanket(node)
    ]
    assert not blanket, f"{path.name} has a bare or blanket except at lines {blanket}"


#: numpy.linalg names other modules may use: a norm is a reduction, and the
#: exception type is what callers catch.  Every decomposition goes through
#: ``_linalg``, so each eigendecomposition and certificate has one owner.
LINALG_OUTSIDE_HELPERS = {"norm", "LinAlgError"}


@pytest.mark.parametrize(
    "path", [path for path in MODULES if path.name != "_linalg.py"], ids=lambda path: path.name
)
def test_decompositions_go_through_the_linalg_helpers(path):
    tree = _tree(path)
    calls = [
        f"{node.func.attr} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Attribute)
        and node.func.value.attr == "linalg"
        and node.func.attr not in LINALG_OUTSIDE_HELPERS
    ]
    imports = [
        f"import (line {node.lineno})"
        for node in ast.walk(tree)
        if (isinstance(node, ast.ImportFrom) and node.module is not None
            and (node.module.startswith("numpy.linalg")
                 or (node.module == "numpy" and any(a.name == "linalg" for a in node.names))))
        or (isinstance(node, ast.Import) and any(a.name.startswith("numpy.linalg") for a in node.names))
    ]
    assert not calls + imports, (
        f"{path.name} uses numpy.linalg outside dbexp._linalg: {', '.join(calls + imports)}"
    )


#: The functions of ``estimators.py`` that may form a matrix product.  A product
#: on a stack of realizations goes through ``_rows`` (or ``_gram``'s row-wise
#: products), so that a row of a stack rounds as that realization alone; the
#: full-schedule oracles take no stack.
ESTIMATOR_PRODUCTS = {"_rows", "_gram", "greg_forms", "fixed_coef_variance"}
PRODUCT_CALLS = {"matmul", "dot", "vdot", "inner", "tensordot", "einsum"}


def test_estimator_products_go_through_the_row_helper():
    products = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name if where is None else where)
                continue
            product = (isinstance(child, (ast.BinOp, ast.AugAssign))
                       and isinstance(child.op, ast.MatMult)
                       or isinstance(child, ast.Call) and _called_name(child) in PRODUCT_CALLS)
            if product and where not in ESTIMATOR_PRODUCTS:
                products.append(f"{where or 'module level'} (line {child.lineno})")
            visit(child, where)

    visit(_tree(ROOT / "src" / "dbexp" / "estimators.py"), None)
    assert not products, (
        "estimators.py forms a matrix product outside _rows, _gram and the oracles: "
        + ", ".join(products)
    )


#: Modules that may write out the unit -> cluster map.  Cluster ids become a
#: partition in ``design._cluster_groups`` and unit rows become cluster totals
#: in ``Groups.totals``.  A scatter-add, id search or weighted count anywhere
#: else is a second copy of the map, free to label or round differently; such
#: copies once collapsed all-singleton data in one place and not in another.
CLUSTER_MAP_OWNERS = {"_group.py", "design.py"}


def _cluster_map_call(node: ast.Call) -> str | None:
    func = node.func
    if not isinstance(func, ast.Attribute):
        return None
    if func.attr == "at" and isinstance(func.value, ast.Attribute) and func.value.attr == "add":
        return "add.at"
    if func.attr == "searchsorted":
        return "searchsorted"
    weighted = len(node.args) > 1 or any(k.arg == "weights" for k in node.keywords)
    if func.attr == "bincount" and weighted:
        return "weighted bincount"
    return None


@pytest.mark.parametrize(
    "path", [path for path in MODULES if path.name not in CLUSTER_MAP_OWNERS],
    ids=lambda path: path.name,
)
def test_cluster_totals_go_through_groups(path):
    calls = [
        f"{name} (line {node.lineno})"
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Call) and (name := _cluster_map_call(node))
    ]
    assert not calls, (
        f"{path.name} maps units to clusters outside dbexp._group and dbexp.design: "
        + ", ".join(calls)
    )


def _callers(name: str) -> set[str]:
    """The library functions, as ``module.function`` or ``module.Class.method``,
    that call ``name`` by that name or as an attribute."""
    found = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{where}.{child.name}")
                continue
            if isinstance(child, ast.Call) and _called_name(child) == name:
                found.add(where)
            visit(child, where)

    for path in MODULES:
        visit(_tree(path), path.stem)
    return found


def test_one_path_to_a_normal_system():
    """``X'(core)X`` is built by ``AdjustmentCache.over``, or by the population
    oracles' own solve, and a system over a design's D or a bound is kept by
    its owner through ``estimators._system``: a second builder would be a
    second cache, free to go stale or to differ in its cutoff."""
    assert _callers("normal_system") == {"estimators.AdjustmentCache.over",
                                         "optimal._solve_normal"}
    assert _callers("over") == {"estimators._system"}


def test_the_dense_scan_runs_only_where_no_construction_proves_a_joint():
    """A directly built ``Design`` (a deserialized Monte-Carlo joint included)
    scans its joint, a group design its 3-unit joint, and ``make_from_sampler``
    a weighted support's; counted joints and the analytic kind forms are valid
    by construction.  The support proof (``_from_support``) is set only when a
    design is built, never afterwards."""
    assert _callers("_validate_joint") == {"design.Design.__post_init__",
                                           "design._validate_group_joint",
                                           "design.make_from_sampler"}
    late = [
        f"{path.name} (line {node.lineno})"
        for path in MODULES
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Call) and _called_name(node) in ("__setattr__", "setattr")
        and any(isinstance(arg, ast.Constant) and arg.value == "_from_support"
                for arg in node.args)
    ]
    assert not late, f"_from_support set after construction at {', '.join(late)}"


#: Calls that build a random generator or its seed.  Building one per
#: replication cost more than the draws it made; one generator that takes each
#: replication's state in turn (``simulation._treated_clusters``) gives the
#: same streams.
GENERATOR_CONSTRUCTORS = {"default_rng", "SeedSequence", "Generator", "PCG64"}


def _per_iteration(tree: ast.Module):
    """The nodes that run once per iteration of a loop or comprehension."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield from node.body
        elif isinstance(node, ast.While):
            yield node.test
            yield from node.body
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            # only the first iterable is evaluated once
            yield from (node.key, node.value) if isinstance(node, ast.DictComp) else (node.elt,)
            yield from node.generators[0].ifs
            yield from node.generators[1:]


def _called_name(node: ast.Call) -> str | None:
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _builders(tree: ast.Module) -> set[str]:
    """The constructors and the module's functions that call one, directly or
    through one another."""
    functions = [node for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    builders = set(GENERATOR_CONSTRUCTORS)
    while more := {
        function.name for function in functions
        if function.name not in builders
        and any(isinstance(call, ast.Call) and _called_name(call) in builders
                for call in ast.walk(function))
    }:
        builders |= more
    return builders


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_generator_is_built_in_a_loop(path):
    tree = _tree(path)
    builders = _builders(tree)
    calls = sorted({
        f"{name} (line {call.lineno})"
        for node in _per_iteration(tree)
        for call in ast.walk(node)
        if isinstance(call, ast.Call) and (name := _called_name(call)) in builders
    })
    assert not calls, f"{path.name} builds a random generator inside a loop: {', '.join(calls)}"


def _public_callables(module):
    """The public functions and public methods of the classes defined in ``module``."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                member = getattr(member, "__func__", member)  # class- and staticmethods
                if not attr.startswith("_") and inspect.isfunction(member):
                    yield f"{name}.{attr}", member


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_a_function_given_a_design_derives_its_design_matrix(path):
    """A design determines its design matrix D, so a function that takes a
    design and also a D takes a second copy that nothing ties to the first:
    one built from another design gave wrong answers without an error."""
    module = importlib.import_module(f"dbexp.{path.stem}")
    both = sorted(
        name for name, function in _public_callables(module)
        if {"design", "dmat"} <= set(inspect.signature(function).parameters)
    )
    assert not both, f"{path.name} takes a design and a design matrix in: {', '.join(both)}"


def _bench_module(name: str) -> types.ModuleType:
    """``bench/<name>.py``, run from its source so that no bytecode is written
    under ``bench/``."""
    path = ROOT / "bench" / f"{name}.py"
    module = types.ModuleType(f"bench_{name}")
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


TRACING = _bench_module("tracing")


@pytest.mark.parametrize("layer", sorted(TRACING.LAYERS))
def test_every_tracer_layer_resolves(layer):
    """A traced entry point renamed or removed would leave its layer's
    per-layer metrics absent from every benchmark run without an error."""
    unresolved = []
    for module_name, selector in TRACING.LAYERS[layer]:
        found = TRACING._resolve(importlib.import_module(module_name), selector)
        if not found or not all(callable(getattr(owner, attr)) for owner, attr in found):
            unresolved.append(f"{module_name}:{selector}")
    assert not unresolved, f"tracer layer {layer} names nothing at {', '.join(unresolved)}"


class _Captured(Exception):
    pass


def test_the_bench_simulate_arguments_parse(tmp_path):
    """The benchmark's simulate workload runs ``dbexp simulate`` with fixed
    arguments; a CLI change that rejects them would make every run of the
    workload exit 2."""
    seen = []

    def record(args, **kwargs):
        seen.append(args)
        raise _Captured

    stub = types.SimpleNamespace(main=types.SimpleNamespace(main=record))
    [(_, simulate)] = _bench_module("workloads").simulate_ops(stub, 0, str(tmp_path))
    with pytest.raises(_Captured):
        simulate()
    name, *args = seen[0]
    context = importlib.import_module("dbexp.cli").main.commands[name].make_context(name, args)
    assert (name, context.params["defaults"], context.params["seed"]) == ("simulate", True, 0)


def test_the_package_version_is_the_project_version():
    """Manifests record ``dbexp.__version__``; pyproject.toml holds the other copy."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["version"] == importlib.import_module("dbexp").__version__
