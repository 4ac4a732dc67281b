"""Every ``__all__`` entry of every ``repro`` module names a real attribute.

``__all__`` lists and package re-exports are promises about the public
surface that nothing checks until the exact name is touched: a phantom
entry breaks ``from repro.x import *``, a stale re-export breaks the next
import.  Importing every module surfaces the broken re-exports; looking up
every ``__all__`` name surfaces the phantoms.
"""

from __future__ import annotations

import importlib
import pkgutil
import types

import pytest

import repro

MODULES = ["repro", *(info.name for info in pkgutil.walk_packages(repro.__path__, "repro."))]


def phantom_exports(module: types.ModuleType) -> list[str]:
    """The ``__all__`` entries ``module`` does not actually bind."""
    return [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    assert phantom_exports(importlib.import_module(name)) == []


def test_the_walk_reaches_every_subpackage():
    packages = {name.split(".")[1] for name in MODULES[1:]}
    assert len(MODULES) > 90
    assert {"api", "core", "distributed", "lint", "parallel", "serve"} <= packages


def test_a_phantom_export_is_caught():
    module = types.ModuleType("seeded")
    module.solve = lambda: None
    module.__all__ = ["solve", "Sesion"]
    assert phantom_exports(module) == ["Sesion"]
