"""The public name list of each module: sorted, resolvable, and free of private names."""

import importlib
import pkgutil

import pytest

import wedgemech

_MODULES = sorted(info.name for info in pkgutil.iter_modules(wedgemech.__path__))

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
