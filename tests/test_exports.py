"""Every name a module lists in ``__all__`` resolves once the module is imported."""

import importlib
import pkgutil

import pytest

import sipcraft

MODULES = ["sipcraft", *sorted(m.name for m in pkgutil.walk_packages(sipcraft.__path__, "sipcraft."))]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"
