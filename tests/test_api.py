"""The public surface: every name a module lists in __all__ exists, so a
name left behind by a deletion fails here rather than at import *."""

import importlib

import pytest


@pytest.mark.parametrize(
    "module", ["graph_core", "bounds", "turan", "census", "sampler", "thresholds"]
)
def test_all_names_resolve(module):
    mod = importlib.import_module(f"kfreelab.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
