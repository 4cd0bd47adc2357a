"""Every name a qpsl module exports resolves, so no stale export outlives a
deletion."""

import importlib
import pkgutil

import pytest

import qpsl

MODULES = sorted(m.name for m in pkgutil.iter_modules(qpsl.__path__, "qpsl."))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []
