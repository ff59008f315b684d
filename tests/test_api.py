import importlib
import pathlib
import pkgutil
import re

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


def test_module_all_lists_are_disjoint():
    # the package star-imports each module in turn, so a name listed twice
    # would silently resolve to the later module's object
    seen = {}
    for name in MODULES:
        for item in importlib.import_module(f"toruscodes.{name}").__all__:
            assert item not in seen, f"{item} in both {seen[item]} and {name}"
            seen[item] = name


def test_readme_quick_start_runs():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```", readme.read_text(), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(readme), "exec"), {})
