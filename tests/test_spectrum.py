"""IDS, rotation curves, gap detection and labeling."""

import math

import numpy as np
import pytest

from qpsl.diophantine import dist_to_integers
from qpsl.errors import NonConvergence, QpslError
from qpsl.fourier import FourierSeries, amo_potential
from qpsl.spectrum import (
    detect_gaps,
    finite_ids,
    gap_bounds_check,
    ids_curve,
    rotation_curve,
)

GOLD = 0.6180339887498949


def test_finite_ids_extremes():
    assert finite_ids(None, [GOLD], [0.3], 100, -10.0) == 0.0
    assert finite_ids(None, [GOLD], [0.3], 100, 10.0) == 1.0


def test_finite_ids_free_half_filling():
    # free tridiagonal eigenvalues are 2 cos(k pi / (2N+2)): symmetric about 0
    N = 500
    val = finite_ids(None, [GOLD], [0.0], N, 0.0)
    assert abs(val - 0.5) <= 2.0 / N
    # closed-form oracle: exact count below E
    k = np.arange(1, 2 * N + 2)
    evals = 2 * np.cos(k * math.pi / (2 * N + 2))
    for E in (-1.0, -0.3, 0.7):
        expect = np.sum(evals < E) / (2 * N + 1)
        got = finite_ids(None, [GOLD], [0.0], N, E)
        assert abs(got - expect) <= 1.5 / N


def test_finite_ids_amo_matches_dense_eigenvalues():
    P = amo_potential(0.5)
    N, theta = 200, 0.8
    m = np.arange(-N, N + 1)
    diag = P.sample(theta + 2 * math.pi * m * GOLD)
    H = np.diag(diag) + np.diag(np.ones(2 * N), 1) + np.diag(np.ones(2 * N), -1)
    evals = np.linalg.eigvalsh(H)
    E = np.linspace(-2.9, 2.9, 59)
    got = finite_ids(P, [GOLD], [theta], N, E)
    for e, g in zip(E, got):
        assert np.min(np.abs(evals - e)) > 1e-9      # the oracle's count is sharp
        assert g == np.sum(evals < e) / (2 * N + 1)


def test_non_potential_rejected():
    series = FourierSeries(1, {(1,): 0.5, (-1,): 0.5})
    with pytest.raises(QpslError):
        finite_ids(series, [GOLD], [0.3], 100, 0.0)
    with pytest.raises(QpslError):
        rotation_curve(lambda th: np.cos(th), [GOLD], [0.0, 1.0], iters=100, samples=2)


def test_ids_curve_monotone():
    P = amo_potential(0.5)
    E = np.linspace(-3, 3, 41)
    curve = ids_curve(P, [GOLD], E, N=300, phases=3)
    assert np.all(np.diff(curve.values) >= 0)
    assert curve.values[0] == 0.0
    assert curve.values[-1] == 1.0


def test_rotation_curve_free():
    E = np.linspace(-1.9, 1.9, 21)
    curve = rotation_curve(None, [GOLD], E, iters=30_000, samples=2)
    expect = np.arccos(E / 2) / (2 * math.pi)
    assert np.max(np.abs(curve.rho - expect)) < 1e-3
    assert np.all(np.diff(curve.rho) <= 1e-4)


def test_rotation_curve_flat_outside_hull():
    E = np.array([-5.0, 5.0])
    curve = rotation_curve(None, [GOLD], E, iters=5_000, samples=2)
    assert curve.rho[1] < 1e-3                   # rho ~ 0 above the hull
    assert abs(curve.rho[0] - 0.5) < 1e-3        # rho ~ 1/2 below


def test_ids_rotation_identity_amo():
    P = amo_potential(0.5)
    E = np.linspace(-3.2, 3.2, 41)
    rc = rotation_curve(P, [GOLD], E, iters=60_000, samples=3)
    ic = ids_curve(P, [GOLD], E, N=1200, phases=6)
    err = np.max(np.abs(ic.values - (1.0 - 2.0 * rc.rho)))
    assert err < 8e-3


def test_ids_fluctuation_decays_with_truncation():
    P = amo_potential(0.5)
    E = np.linspace(-2.5, 2.5, 11)
    spreads = []
    for N in (200, 800):
        vals = [np.asarray(finite_ids(P, [GOLD], [th], N, E))
                for th in (0.3, 1.7, 2.9, 4.1)]
        spreads.append(float(np.max(np.ptp(np.stack(vals), axis=0))))
    assert spreads[1] < spreads[0]


def test_detect_gaps_free_cocycle_none():
    E = np.linspace(-1.95, 1.95, 101)
    curve = rotation_curve(None, [GOLD], E, iters=20_000, samples=2)
    gaps = detect_gaps(curve, [GOLD], labels=[1, 2, 3], tol=5e-4)
    assert gaps == []


def test_detect_gaps_amo_label_one():
    P = amo_potential(0.5)
    E = np.linspace(-2.6, 2.6, 201)
    curve = rotation_curve(P, [GOLD], E, iters=40_000, samples=2, seed=3)

    def rho_fn(evals):
        return rotation_curve(P, [GOLD], evals, iters=40_000,
                              samples=2, seed=3).rho

    gaps = detect_gaps(curve, [GOLD], labels=[1, 2], tol=2e-3, rho_fn=rho_fn,
                       refine_bisections=10)
    g1 = next(g for g in gaps if abs(g.label[0]) == 1)
    assert g1.length > 0.05
    # the locked value is the distance of <n, alpha>/2 to the integers
    assert g1.rho_locked == pytest.approx(dist_to_integers(GOLD / 2), abs=1e-12)
    # cross-check the edges against an IDS plateau
    ic = ids_curve(P, [GOLD], np.linspace(g1.E_minus - 0.3, g1.E_plus + 0.3, 121),
                   N=2000, phases=4)
    inside = (ic.energies > g1.E_minus + 0.02) & (ic.energies < g1.E_plus - 0.02)
    plateau_vals = ic.values[inside]
    assert plateau_vals.max() - plateau_vals.min() < 5e-3


def _oracle_refine_edge(rho_fn, label, alpha, tol, anchor, E_out, budget):
    """The per-edge refinement detect_gaps used before its edges were refined
    in lockstep: one rho_fn call per edge and stage."""
    if E_out == anchor:
        return float(anchor)
    lo, hi = float(anchor), float(E_out)   # lo: locked side, hi: unlocked side
    width_target = abs(E_out - anchor) * 0.5 ** budget
    pts = 33
    for _ in range(12):
        if abs(hi - lo) <= width_target:
            break
        grid = np.linspace(lo, hi, pts)    # may run downward
        asc = np.sort(grid)
        rho_asc = np.asarray(rho_fn(asc))
        rho = np.empty_like(rho_asc)
        rho[np.argsort(grid, kind="stable")] = rho_asc
        locked = np.array([dist_to_integers(2.0 * r - float(np.dot(label, alpha))) < tol
                           for r in rho])
        if locked.all():
            lo = float(grid[-1])
            break
        k = int(np.argmin(locked))         # first unlocked index from lo
        if k == 0:
            break                          # plateau interior already unlocked
        lo, hi = float(grid[k - 1]), float(grid[k])
    return lo


class _CountingRho:
    """A rho_fn that counts its calls and checks that its input is sorted."""

    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, evals):
        assert np.all(np.diff(evals) >= 0)
        self.calls += 1
        return self.fn(evals)


def _oracle_plateaus(curve, alpha, labels, tol, min_plateau=3):
    """The per-energy, per-candidate label pick and plateau scan detect_gaps
    used before its lock tests were vectorised, as [(label, i, j)]."""
    cands = []
    for n in labels:
        for cand in ((n,), (-n,)):
            if cand not in cands:
                cands.append(cand)
    best = [None] * curve.energies.size
    for i, r in enumerate(curve.rho):
        dists = [(dist_to_integers(2.0 * r - float(np.dot(n, alpha))), n) for n in cands]
        dmin, nmin = min(dists, key=lambda t: t[0])
        if dmin < tol:
            best[i] = nmin
    out, i = [], 0
    while i < len(best):
        if best[i] is None:
            i += 1
            continue
        j = i
        while j + 1 < len(best) and best[j + 1] == best[i]:
            j += 1
        if j - i + 1 >= min_plateau:
            out.append((best[i], i, j))
        i = j + 1
    return out


def _check_against_oracle(curve, rho_fn, alpha, labels, tol, refine_tol, budget):
    """detect_gaps with rho_fn equals the oracles on every label and edge
    with ==, in one rho_fn call per stage; returns the gaps and the oracle's
    stages per edge."""
    E = curve.energies
    counting = _CountingRho(rho_fn)
    gaps = detect_gaps(curve, alpha, labels, tol=tol, rho_fn=counting,
                       refine_bisections=budget, refine_tol=refine_tol)
    plateaus = _oracle_plateaus(curve, alpha, labels, tol)
    assert [g.label for g in gaps] == [n for n, _, _ in plateaus]
    stages = []
    for g, (_, i, j) in zip(gaps, plateaus):
        anchor = 0.5 * (E[i] + E[j])
        for got, E_out in ((g.E_minus, E[i - 1] if i > 0 else E[i]),
                           (g.E_plus, E[j + 1] if j + 1 < E.size else E[j])):
            oracle = _CountingRho(rho_fn)
            want = _oracle_refine_edge(oracle, g.label, alpha, refine_tol, anchor,
                                       E_out, budget)
            assert got == want
            stages.append(oracle.calls)
        assert g.length == g.E_plus - g.E_minus
    assert counting.calls == max(stages, default=0)
    return gaps, stages


def test_detect_gaps_lockstep_matches_per_edge_oracle():
    P = amo_potential(0.5)
    E = np.linspace(-2.6, 2.6, 201)
    curve = rotation_curve(P, [GOLD], E, iters=20_000, samples=2, seed=1)

    def rho_fn(evals):
        return rotation_curve(P, [GOLD], evals, iters=20_000, samples=2, seed=1).rho

    gaps, stages = _check_against_oracle(curve, rho_fn, [GOLD], [1, 2, 3],
                                         tol=2e-3, refine_tol=3e-4, budget=14)
    assert {(1,), (-1,)} <= {g.label for g in gaps}
    assert stages == [3] * len(stages)        # 8 or more per-edge calls become 3


def test_detect_gaps_lockstep_edges_close_at_different_stages():
    # rho locks onto GOLD/2 (label 1) on [-1, 0.5] and leaves it linearly;
    # the scan starts inside the plateau, so the lower edge's first grid is
    # all locked and closes after one stage while the upper edge takes three
    def rho_fn(evals):
        evals = np.asarray(evals)
        return GOLD / 2 + np.maximum(evals - 0.5, 0) + np.maximum(-1.0 - evals, 0)

    E = np.linspace(-0.9, 1.0, 20)
    curve = rotation_curve(None, [GOLD], E, iters=10, samples=1)
    curve.rho = rho_fn(E)
    gaps, stages = _check_against_oracle(curve, rho_fn, [GOLD], [1], tol=1e-3,
                                         refine_tol=1e-3, budget=14)
    assert stages == [1, 3]
    assert gaps[0].E_minus == E[0]
    assert 0.5 < gaps[0].E_plus < 0.5 + 1e-3


def test_detect_gaps_unlocked_anchor_raises():
    # the scan sees a plateau at tol 1e-3, but at the refinement tolerance
    # even its midpoint is unlocked: no edge may be reported
    def rho_fn(evals):
        evals = np.asarray(evals)
        return GOLD / 2 + 1e-4 + np.where(np.abs(evals) < 0.5, 0.0, 0.1)

    E = np.linspace(-1.0, 1.0, 21)
    curve = rotation_curve(None, [GOLD], E, iters=10, samples=1)
    curve.rho = rho_fn(E)
    (plain,) = detect_gaps(curve, [GOLD], [1], tol=1e-3)
    anchor = 0.5 * (plain.E_minus + plain.E_plus)
    with pytest.raises(NonConvergence) as err:
        detect_gaps(curve, [GOLD], [1], tol=1e-3, rho_fn=rho_fn, refine_tol=1e-5)
    assert str(err.value).startswith(f"gap (1,) E_minus: the plateau midpoint {anchor!r} ")


def test_gap_bounds_check_window():
    from qpsl.spectrum import GapRecord
    k, tau = 2.0, 1.5
    g = GapRecord(label=(16,), E_minus=0.0, E_plus=16.0 ** (-k), length=16.0 ** (-k),
                  rho_locked=0.3)
    rep = gap_bounds_check(g, k, tau)
    assert rep["r"] == pytest.approx(-k)
    lo, hi = rep["window"]
    assert lo == pytest.approx(-11 * k / 10 - 6 * tau)
    assert hi == pytest.approx(-9 * k / 10 + 56 * tau)
    assert rep["window_nonempty"]
    assert rep["inside"]
