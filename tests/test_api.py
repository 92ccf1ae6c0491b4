"""The public surface: every name a module lists in __all__ exists, so a
name left behind by a deletion fails here rather than at import *, and the
package exports exactly those names and its submodules."""

import importlib

import pytest

import kfreelab

MODULES = ["errors", "graph_core", "bounds", "turan", "census", "sampler", "thresholds"]


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(f"kfreelab.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_package_exports_each_module_all():
    names = set(MODULES)
    for module in MODULES:
        names.update(importlib.import_module(f"kfreelab.{module}").__all__)
    assert set(kfreelab.__all__) == names
