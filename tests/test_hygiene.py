"""Static checks: no unused imports in the library and its tests, no blanket
excepts in the library, one owner for decompositions and for the unit ->
cluster map, no random generator built inside a loop, and no function that
takes both a design and its design matrix."""

import ast
import importlib
import inspect
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
