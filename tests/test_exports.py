"""The public name list of each module: sorted, resolvable, free of private names,
and reached by the package or its benchmark."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import wedgemech

_MODULES = sorted(info.name for info in pkgutil.iter_modules(wedgemech.__path__))
_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# the one pair of exported names bound to one object: perfbench calls the
# surface spelling, and ROADMAP item 6 removes it, after items 1 and 3b
_ALIASES = {("variational", ("velocity_prolongation", "wedge_prolongation"))}


def test_every_library_module_declares_its_public_names():
    without = [name for name in _MODULES
               if not hasattr(importlib.import_module(f"wedgemech.{name}"), "__all__")]
    assert without == ["cli"]  # the command-line front end exports nothing but main


@pytest.mark.parametrize("name", [m for m in _MODULES if m != "cli"])
def test_all_is_sorted_resolvable_and_public(name):
    module = importlib.import_module(f"wedgemech.{name}")
    exported = list(module.__all__)
    assert exported == sorted(exported)
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []
    assert [n for n in exported if n.startswith("_")] == []


@pytest.mark.parametrize("name", [m for m in _MODULES if m != "cli"])
def test_no_two_exported_names_are_one_object(name):
    module = importlib.import_module(f"wedgemech.{name}")
    owners = {}
    for exported in module.__all__:
        owners.setdefault(id(getattr(module, exported)), []).append(exported)
    shared = {(name, tuple(names)) for names in owners.values() if len(names) > 1}
    assert shared <= _ALIASES


def _references(tree):
    """Names a module reads: loaded names, attribute names and imported names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def _table_strings(tree):
    """The strings in a module's top-level tuple tables, where the tracer names
    the attributes it wraps."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Tuple):
            for leaf in ast.walk(node.value):
                if isinstance(leaf, ast.Constant) and isinstance(leaf.value, str):
                    yield leaf.value


def test_every_exported_name_is_reached_by_the_package_or_the_benchmark():
    # an exported name that only tests reach is a second spelling of the API
    package = {path.stem: ast.parse(path.read_text()) for path in
               sorted(Path(wedgemech.__file__).parent.glob("*.py"))}
    bench = {path.stem: ast.parse(path.read_text()) for path in sorted(_PERFBENCH.glob("*.py"))}
    reached = {name for tree in (*package.values(), *bench.values()) for name in _references(tree)}
    reached.update(_table_strings(bench["tracing"]))
    exported = {module: ast.literal_eval(node.value) for module, tree in package.items()
                for node in tree.body if isinstance(node, ast.Assign)
                and any(getattr(target, "id", None) == "__all__" for target in node.targets)}
    assert sorted(exported) == [m for m in _MODULES if m != "cli"]
    unreached = [f"{module}.{name}" for module, names in sorted(exported.items())
                 for name in names if name not in reached]
    assert unreached == []
