"""The public API surface: every exported name resolves."""

import importlib
import pkgutil

import pytest

import fleetmaint

SUBMODULES = sorted(
    f"fleetmaint.{info.name}"
    for info in pkgutil.iter_modules(fleetmaint.__path__)
    if info.name != "__main__"
)


@pytest.mark.parametrize("module_name", ["fleetmaint", *SUBMODULES])
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    assert module.__all__, f"{module_name} exports nothing"
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names missing attributes: {missing}"
    assert len(set(module.__all__)) == len(module.__all__)
