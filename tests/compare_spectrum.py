"""Print every spectrum output of the Sturm pivot count as float.hex, for a
diff between two checkouts.

    PYTHONPATH=src python tests/compare_spectrum.py > spectrum.txt

Run it on both checkouts and ``cmp`` the two files.  For seeds 1 and 2 it
runs the configuration of the ``gap_scan`` benchmark workload (AMO lambda =
0.5, golden-mean alpha, 261 energies on [-2.6, 2.6], 60,000 sites, 2 phases):
the ``rotation_curve`` rho and dispersion, the ``detect_gaps`` records refined
on labels 1..3, and the ``ids_curve`` (N = 2000, 6 phases) across the label-1
gap.  It adds rotation curves of the free operator and of a d = 2 potential
(1 and 3 phases) and ``finite_ids`` of three potentials at three phases and
two truncations.  Not collected by pytest: it is a diff tool, not a check.
"""

import dataclasses
import math

import numpy as np

from qpsl.fourier import Potential, amo_potential
from qpsl.spectrum import detect_gaps, finite_ids, ids_curve, rotation_curve

SEEDS = (1, 2)
GOLD = 0.6180339887498949
ITERS, SAMPLES = 60_000, 2


def _hex(x):
    """x with every float as float.hex, for lists, tuples, dicts and arrays."""
    if isinstance(x, np.ndarray):
        return [_hex(v) for v in x.tolist()]
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, dict):
        return {k: _hex(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_hex(v) for v in x]
    return x


def _gap_scan(seed):
    V = amo_potential(0.5)
    curve = rotation_curve(V, [GOLD], np.linspace(-2.6, 2.6, 261), iters=ITERS,
                           samples=SAMPLES, seed=seed)
    print(f"seed {seed} rho", _hex(curve.rho))
    print(f"seed {seed} dispersion", _hex(curve.dispersion))

    def rho_fn(evals):
        return rotation_curve(V, [GOLD], evals, iters=ITERS, samples=SAMPLES, seed=seed).rho

    gaps = detect_gaps(curve, [GOLD], labels=[1, 2, 3], tol=2e-3, rho_fn=rho_fn,
                       refine_bisections=14, refine_tol=3e-4)
    for g in gaps:
        # with the two unset fields that GapRecord once carried, so that the
        # line reads the same against checkouts that still have them
        record = {**dataclasses.asdict(g), "zeta_estimate": None, "bound_window": {}}
        print(f"seed {seed} gap", _hex(record))
    g1 = next(g for g in gaps if abs(g.label[0]) == 1)
    grid = np.linspace(g1.E_minus - 0.15, g1.E_plus + 0.15, 301)
    ids = ids_curve(V, [GOLD], grid, N=2000, phases=6, seed=seed)
    print(f"seed {seed} ids", _hex(ids.values))


def _other_curves():
    V2 = Potential(labels=[(1, 0), (0, 1)], coefficients=[1.0, 0.6], k_exponent=0.0)
    alpha2 = [GOLD, math.sqrt(2) - 1]
    for name, V, alpha in (("free", None, [GOLD]), ("d2", V2, alpha2)):
        for samples in (1, 3):
            curve = rotation_curve(V, alpha, np.linspace(-3.0, 3.0, 97), iters=20_000,
                                   samples=samples, seed=4)
            print(f"{name} samples {samples} rho", _hex(curve.rho))
            print(f"{name} samples {samples} dispersion", _hex(curve.dispersion))


def _finite_ids():
    energies = np.concatenate([np.linspace(-3.2, 3.2, 125), [0.0]])
    for name, V in (("free", None), ("amo 0.5", amo_potential(0.5)),
                    ("amo 1.3", amo_potential(1.3))):
        for theta in (0.0, 0.7, 2.9):
            for N in (100, 2000):
                out = finite_ids(V, [GOLD], [theta], N, energies)
                print(f"finite_ids {name} theta {theta} N {N}", _hex(out))


def main():
    for seed in SEEDS:
        _gap_scan(seed)
    _other_curves()
    _finite_ids()


if __name__ == "__main__":
    main()
