import importlib
import pkgutil

import pytest

import toruscodes

MODULES = [
    info.name
    for info in pkgutil.iter_modules(toruscodes.__path__)
    if hasattr(importlib.import_module(f"toruscodes.{info.name}"), "__all__")
]


def test_modules_found():
    assert {"torus", "lattices", "curves", "layers", "codec", "simulate"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_module_all_is_exported_by_package(name):
    module = importlib.import_module(f"toruscodes.{name}")
    for item in module.__all__:
        assert getattr(toruscodes, item, None) is getattr(module, item), f"{name}.{item}"
