"""Import surface: every name a module lists in __all__ must exist, so a
deletion cannot leave a stale export behind."""
import importlib
import pkgutil

import pytest

import thermofem

MODULES = ["thermofem"] + sorted(
    f"thermofem.{info.name}" for info in pkgutil.iter_modules(thermofem.__path__))


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", None)
    assert exported, f"{module_name} declares no __all__"
    assert len(set(exported)) == len(exported), f"{module_name}.__all__ repeats a name"
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names missing attributes: {missing}"
