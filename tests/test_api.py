"""Every name a qpsl module exports resolves, so no stale export outlives a
deletion, and importing a module loads only what it runs."""

import importlib
import pkgutil
import subprocess
import sys

import pytest

import qpsl

MODULES = sorted(m.name for m in pkgutil.iter_modules(qpsl.__path__, "qpsl."))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []


@pytest.mark.parametrize("name, absent", [
    # the CLI imports the KAM stack in the commands that run it
    ("qpsl.cli", ("qpsl.kam", "qpsl.moser_poschel", "qpsl.edge")),
    # fourier names LabelSet in annotations only
    ("qpsl.fourier", ("qpsl.label_set", "mpmath")),
])
def test_an_import_loads_no_module_it_does_not_run(name, absent):
    code = f"import sys, {name}; print(*sorted(set({absent!r}) & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (proc.returncode, proc.stderr, proc.stdout.split()) == (0, "", [])
