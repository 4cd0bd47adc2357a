"""The benchmark's traced layers still name functions that exist in qpsl.

``perfbench/layers.py`` wraps each (owner, attribute) of its FUNCTIONS list
at run time, so a rename in qpsl would otherwise only show as a crash of a
traced benchmark run.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import layers  # noqa: E402


TARGETS = [(owner, attr) for owner, attr, _, _ in layers.FUNCTIONS]


@pytest.mark.parametrize("owner, attr", TARGETS, ids=[layers._name(*t) for t in TARGETS])
def test_bench_target_resolves(owner, attr):
    assert callable(getattr(owner, attr, None))


def test_bench_counters_bind_their_functions():
    # the site-energy counters bind each call to the wrapped function's
    # signature and read its arguments by name
    got = {name: count((None, [0.6], [0.0, 1.0]), {})
           for name, count in layers.COUNTERS.items()}
    assert got == {"spectrum.rotation_curve": {"site_energies": 100_000 * 3 * 2},
                   "spectrum.ids_curve": {"site_energies": 2001 * 4 * 2}}
