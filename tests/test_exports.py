"""Every name in the `__all__` of each evoreg module resolves, so a deleted
function cannot stay exported."""

import importlib
import pkgutil

import pytest

import evoreg

MODULES = ["evoreg"] + [
    f"evoreg.{info.name}" for info in pkgutil.iter_modules(evoreg.__path__)
]


def test_every_module_is_listed():
    assert {"evoreg.engine", "evoreg.regress"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
