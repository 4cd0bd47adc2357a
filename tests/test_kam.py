"""KAM machinery: classification, homological solve, Newton removal, steps."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from qpsl import kam
from qpsl.cocycle import (
    _adjugate,
    _su11_log_pair,
    su11_element,
    su11_exp,
    to_su11,
)
from qpsl.diophantine import dist_to_integers, frequency_vector, golden_mean
from qpsl.edge import locate_edge, recorded
from qpsl.errors import (
    NewtonDiverged,
    NonConvergence,
    QpslError,
    SmallDivisor,
    StateInvalid,
    TargetNotLocked,
)
from qpsl.fourier import (
    FourierSeries,
    Potential,
    build_potential,
    grid_values,
    key_grid,
    lattice,
    lattice_values,
    potential_modes,
)
from qpsl.label_set import build_schedule, construct_label_set
from qpsl.moser_poschel import edge_data_from_reduction
from test_cocycle import _stack_exp_reference as _stack_exp
from qpsl.kam import (
    KamParams,
    KamState,
    ModeRule,
    Su11Series,
    classify_resonance,
    compute_diagnostics,
    divisor_w,
    kam_step,
    remove_nonresonant,
    run_reducibility,
    solve_homological,
)

GOLD = 0.6180339887498949


def _window_schedule(N):
    """A test-only schedule whose every level is N / 2, so that
    KamParams.window(j) is N for 8 <= N <= max_degree."""
    return SimpleNamespace(level_float=lambda j: N / 2)


def _params(**kw):
    defaults = dict(tau=1.5, k_exponent=2.0, schedule=_window_schedule(24),
                    max_degree=96, grid_size=1024, conj_residual_tol=1e-9, seed=0)
    defaults.update(kw)
    return KamParams(**defaults)


def _window_rule(A, alpha, N):
    """The mode rule of a Newton removal at the diagonal constant A on its
    own: the window N, the diagonal floor half the smallest divisor distance
    inside it, the resonance threshold off the diagonal, the off-diagonal mean
    kept."""
    alpha = np.atleast_1d(np.asarray(alpha, float))
    sigma = float(np.angle(A[0, 0])) % (2 * math.pi) / (2 * math.pi)
    return ModeRule(alpha=alpha, sigma=sigma, window=N,
                    diag_floor=kam._min_divisor_distance(alpha, N, alpha.size) / 2,
                    off_floor=kam.RESONANCE_THRESHOLD, keep_w_mean=True)


def _scaled(W, c):
    """The su(1,1) series c W."""
    return Su11Series(W.u.map_values(lambda b: c * b), W.w.map_values(lambda b: c * b))


def _random_su11_series(rng, degree=8, modes=10, amp=1e-3, nonzero_only=False):
    F = Su11Series.zero(1)
    for _ in range(modes):
        n = int(rng.integers(-degree, degree + 1))
        if not (nonzero_only and n == 0):
            F.w[(n,)] = amp * (rng.normal() + 1j * rng.normal())
        m = int(rng.integers(-degree, degree + 1))
        if nonzero_only and m == 0:
            m = 1
        c = amp * (rng.normal() + 1j * rng.normal())
        F.u[(m,)] = F.u[(m,)] + c
        F.u[(-m,)] = F.u[(-m,)] + np.conj(c)
    return F


def _removal_residual(A, F, Y, F_star, alpha, seed=0):
    """max |e^{Y(.+alpha)} A e^{F} e^{-Y} - A e^{F*}| at 8 random probes: the
    identity the conjugator of remove_nonresonant satisfies."""
    alpha = np.atleast_1d(np.asarray(alpha, float))
    pr = np.random.default_rng(seed).uniform(0, 2 * math.pi, size=(8, F.d))
    lhs = (su11_exp(Y.sample(pr + 2 * math.pi * alpha)) @ A @ su11_exp(F.sample(pr))
           @ su11_exp(-Y.sample(pr)))
    rhs = A @ su11_exp(F_star.sample(pr))
    return float(np.max(np.abs(lhs - rhs)))


def _state(A, f, params, pending=(), alpha=GOLD):
    from qpsl.cocycle import to_su11 as _t
    W_mat = to_su11(np.array([[0.0, 0.0], [1.0, 0.0]]))
    W0 = Su11Series.constant(1, W_mat[0, 0].imag, W_mat[0, 1])
    ident = FourierSeries(1, halved=True, kind="matrix")
    ident[(0,)] = np.eye(2, dtype=complex)
    return KamState(j=0, A=A, f=f, pending=list(pending), W=W0,
                    Dinv=ident.copy(),
                    alpha=np.array([alpha]), n_tilde=(0,))


# ---------------------------------------------------------------------------
# classification


def test_classify_nr_at_zero_rho():
    cls = classify_resonance(0.0, [GOLD], N=10, threshold=0.01)
    assert cls.case == "NR"


def test_classify_rs_quarter():
    cls = classify_resonance(0.25, [GOLD], N=10, threshold=0.05)
    assert cls.case == "RS"
    assert cls.site == (4,)
    expected = dist_to_integers(0.5 - 4 * GOLD)
    assert cls.distance == pytest.approx(expected, abs=1e-12)
    assert abs(cls.distance - 0.028) < 1e-3


def test_classify_nr_tight_threshold():
    cls = classify_resonance(0.25, [GOLD], N=10, threshold=0.02)
    assert cls.case == "NR"


@pytest.mark.parametrize("threshold", [0.0, 1.0])
def test_classify_rejects_a_threshold_outside_the_unit_interval(threshold):
    with pytest.raises(QpslError, match=r"threshold must lie in \(0,1\)"):
        classify_resonance(0.25, [GOLD], N=10, threshold=threshold)


# ---------------------------------------------------------------------------
# homological equation


def test_solve_homological_zero():
    Y = solve_homological(np.diag([np.exp(0.4j), np.exp(-0.4j)]),
                          Su11Series.zero(1), [GOLD])
    assert Y.is_zero()


def test_solve_homological_rejects_a_nondiagonal_constant():
    # without sigma, the angle is read off a diagonal A only
    A = to_su11(np.array([[2 * math.cos(2 * math.pi * 0.15), -1.0], [1.0, 0.0]]))
    with pytest.raises(QpslError, match="expects a diagonal constant part"):
        solve_homological(A, Su11Series.zero(1), [GOLD])


def test_solve_homological_single_mode_oracle():
    sigma = 0.13
    A = np.diag([np.exp(2j * np.pi * sigma), np.exp(-2j * np.pi * sigma)])
    F = Su11Series.zero(1)
    w = 0.7 - 0.2j
    F.w[(5,)] = w
    Y = solve_homological(A, F, [GOLD])
    expected = -w / (np.exp(2j * np.pi * (5 * GOLD - 2 * sigma)) - 1)
    assert Y.w[(5,)] == pytest.approx(expected, abs=1e-14)


def test_solve_homological_random_residual_and_oracle():
    rng = np.random.default_rng(0)
    sigma = 0.205
    theta = 2 * math.pi * sigma
    A = np.diag([np.exp(1j * theta), np.exp(-1j * theta)])
    pts = np.linspace(0, 2 * math.pi, 256, endpoint=False)[:, None]
    for _ in range(100):
        F = _random_su11_series(rng, degree=50, modes=12, amp=1.0, nonzero_only=True)
        Y = solve_homological(A, F, [GOLD])
        # coefficientwise independent per-mode formula
        for n, v in F.u.coeffs.items():
            assert abs(Y.u[n] + v / divisor_w(n, [GOLD], 0.0)) < 1e-12 * max(1, abs(v))
        for n, v in F.w.coeffs.items():
            assert abs(Y.w[n] + v / divisor_w(n, [GOLD], sigma)) < 1e-12 * max(1, abs(v))
        # functional residual on a grid
        lhs = (np.einsum("ij,mjk,kl->mil", np.linalg.inv(A),
                         Y.sample(pts + 2 * math.pi * GOLD), A)
               - Y.sample(pts))
        rhs = -F.sample(pts)
        err = np.max(np.abs(lhs - rhs))
        assert err <= 1e-10 * max(1.0, F.norm(0.0))


def test_solve_homological_small_divisor_raised():
    sigma = dist_to_integers(8 * GOLD) / 2  # resonance at n=8 by construction
    A = np.diag([np.exp(2j * np.pi * (4 * GOLD % 1)), 0]).astype(complex)
    A[1, 1] = np.conj(A[0, 0])
    F = Su11Series.zero(1)
    F.w[(8,)] = 1.0
    with pytest.raises(SmallDivisor):
        solve_homological(A, F, [GOLD], floor=1e-2)


# ---------------------------------------------------------------------------
# Newton removal


def test_remove_nonresonant_zero():
    A = np.diag([np.exp(2j * np.pi * 0.15), np.exp(-2j * np.pi * 0.15)])
    Y, F_star, rep = remove_nonresonant(A, Su11Series.zero(1), 1e-9, 0.05, [GOLD],
                                        _window_rule(A, [GOLD], 24), _params())
    assert Y.is_zero(1e-300)
    assert F_star.is_zero(1e-300)


def test_remove_nonresonant_rejects_a_nondiagonal_constant():
    # the caller moves to the eigenframe of its constant first
    A = to_su11(np.array([[2 * math.cos(2 * math.pi * 0.15), -1.0], [1.0, 0.0]]))
    with pytest.raises(QpslError, match="diagonal constant"):
        remove_nonresonant(A, Su11Series.zero(1), 1e-9, 0.05, [GOLD],
                           _window_rule(A, [GOLD], 24), _params())


def test_remove_nonresonant_residual_random():
    rng = np.random.default_rng(1)
    params = _params()
    A = np.diag([np.exp(2j * np.pi * 0.85), np.exp(-2j * np.pi * 0.85)])
    for _ in range(5):
        F = _random_su11_series(rng, degree=50, modes=8, amp=2e-4)
        rule = ModeRule(alpha=np.array([GOLD]), sigma=0.85, window=56,
                        diag_floor=1e-4, off_floor=1e-4, keep_w_mean=True)
        Y, F_star, rep = remove_nonresonant(A, F, 1e-9, 0.02, [GOLD], rule=rule,
                                            params=_params(max_degree=320,
                                                           grid_size=2048))
        assert _removal_residual(A, F, Y, F_star, [GOLD]) <= 1e-10
        # the non-resonant content of F_star is gone
        nre, _ = rule.split(F_star)
        assert nre.norm(0.02) < 1e-11


def test_remove_nonresonant_quadratic_contraction():
    # acceptance-style: contraction exponent over an amplitude sweep
    rng = np.random.default_rng(2)
    A = np.diag([np.exp(2j * np.pi * 0.85), np.exp(-2j * np.pi * 0.85)])
    base = _random_su11_series(rng, degree=12, modes=6, amp=1.0)
    exponents = []
    for amp in np.geomspace(1e-5, 1e-3, 5):
        F = _scaled(base, amp)
        Y, F_star, rep = remove_nonresonant(A, F, 1e-9, 0.02, [GOLD],
                                            _window_rule(A, [GOLD], 24), _params())
        s = rep["sweeps"]
        assert len(s) >= 2
        if s[1] > 0:
            exponents.append(math.log(s[1]) / math.log(s[0]))
    assert exponents and min(exponents) >= 1.5


def test_remove_nonresonant_single_mode_second_order():
    # after one sweep the non-resonant residual is O(|F|^2): the ratio
    # |F_1^{nre}| / |F_0^{nre}|^2 stays below a uniform constant on a sweep
    # spanning two decades (here it even contracts cubically)
    A = np.diag([np.exp(2j * np.pi * 0.85), np.exp(-2j * np.pi * 0.85)])
    ratios = []
    for amp in np.geomspace(1e-5, 1e-3, 5):
        F = Su11Series.zero(1)
        F.w[(3,)] = amp
        _, _, rep = remove_nonresonant(A, F, 1e-9, 0.02, [GOLD],
                                       _window_rule(A, [GOLD], 24), _params())
        s = rep["sweeps"]
        if len(s) >= 2 and s[1] > 0:
            ratios.append(s[1] / s[0] ** 2)
    assert ratios
    assert max(ratios) <= 1.0


@pytest.mark.parametrize("d", [1, 2])
def test_mode_rule_split_masks_each_block_at_its_own_width(d):
    # split builds both masks once at the wider block and crops each; the
    # oracle builds each block's mask at its own half-width
    rng = np.random.default_rng(3)
    alpha = np.array([GOLD, math.sqrt(2) - 1][:d])
    rule = ModeRule(alpha=alpha, sigma=0.205, window=5, diag_floor=0.05, off_floor=0.05,
                    exclude=(1,) * d, keep_w_mean=False)
    for Ku, Kw in ((7, 2), (0, 6), (3, 3)):
        F = Su11Series.zero(d)
        for blk, K in ((F.u, Ku), (F.w, Kw)):
            blk.block = rng.normal(size=(2 * K + 1,) * d) + 1j * rng.normal(size=(2 * K + 1,) * d)
        nre, res = rule.split(F)
        u_res = rule.resonant(key_grid(Ku, d))[0]
        w_res = rule.resonant(key_grid(Kw, d))[1]
        assert Ku == 0 or 0 < u_res.sum() < u_res.size
        for got, want in ((nre.u, F.u.restrict(~u_res)), (nre.w, F.w.restrict(~w_res)),
                          (res.u, F.u.restrict(u_res)), (res.w, F.w.restrict(w_res))):
            assert np.array_equal(got.block, want.block)


def _on_grid(S, G):
    """The values of the su(1,1) series S on the dense grid_points(d, G)."""
    uu, ww = grid_values(S.blocks(), G, S.d)
    return su11_element(uu.real, ww)


def _stack_remove_nonresonant(A, F, eta, h, alpha, rule, params, grid):
    """The Newton sweep of remove_nonresonant on full (G, 2, 2) stacks on the
    given grid, for a diagonal A: each factor both rows, the diagonal
    conjugation a three-factor product.  Returns (Y, F_star, sweeps, dropped
    mass)."""
    d = F.d
    theta = float(np.angle(A[0, 0])) % (2 * math.pi)
    sigma = theta / (2 * math.pi)
    Ad = np.diag([np.exp(1j * theta), np.exp(-1j * theta)])
    g_cur = F
    scale = max(g_cur.norm(h), 1e-300)

    def series(vals):
        return kam.su11_series_from_samples(*_su11_log_pair(vals[:, 0, 0], vals[:, 0, 1]), d,
                                            max_degree=params.max_degree)

    E_acc, sweeps, dropped = None, [], 0.0
    for _ in range(kam.NEWTON_MAX_SWEEPS):
        nre, _ = rule.split(g_cur)
        sweeps.append(nre.norm(h))
        if sweeps[-1] <= kam.NEWTON_TOL * scale:
            break
        Y_p = solve_homological(None, nre, alpha, floor=eta, sigma=sigma)
        E_here = _stack_exp(_on_grid(Y_p, grid))
        Y_fwd = Su11Series(Y_p.u.shift(alpha), Y_p.w.shift(alpha))
        inner = np.linalg.inv(Ad) @ _stack_exp(_on_grid(Y_fwd, grid)) @ Ad
        g_cur = series(inner @ _stack_exp(_on_grid(g_cur, grid)) @ _adjugate(E_here))
        dropped += g_cur.u.dropped_mass + g_cur.w.dropped_mass
        E_acc = E_here if E_acc is None else E_here @ E_acc
    return series(E_acc), g_cur.copy().prune(1e-18), sweeps, dropped


# The pair sweep and the stack sweep round the products of their O(1) SU(1,1)
# grid values differently; Y and F* inherit that rounding (3.9e-16 measured).
PRODUCT_ROUNDING = 4 * np.finfo(float).eps


def _assert_equals_stack_sweep(Y, F_star, rep, Y_ref, F_ref, sweeps, dropped):
    """remove_nonresonant's (Y, F*, report) against the stack sweep's on the
    same grid: the same sweep count, first norm and dropped mass, the later
    norms within 1e-14 (that rounding weighted by e^{|n| h}), and blocks of Y
    and F* of the same shape within PRODUCT_ROUNDING."""
    assert len(rep["sweeps"]) == len(sweeps) >= 3
    assert rep["sweeps"][0] == sweeps[0] and rep["dropped_mass"] == dropped
    assert np.allclose(rep["sweeps"], sweeps, rtol=0, atol=1e-14)
    for got, want in ((Y.u, Y_ref.u), (Y.w, Y_ref.w), (F_star.u, F_ref.u), (F_star.w, F_ref.w)):
        assert got.block.shape == want.block.shape
        assert np.max(np.abs(got.block - want.block), initial=0.0) <= PRODUCT_ROUNDING


@pytest.mark.parametrize("d", [1, 2])
def test_remove_nonresonant_equals_stack_sweep(d):
    rng = np.random.default_rng(7)
    sigma = 0.85 if d == 1 else 0.205
    A = np.diag([np.exp(2j * np.pi * sigma), np.exp(-2j * np.pi * sigma)])
    if d == 1:
        alpha = np.array([GOLD])
        F = _random_su11_series(rng, degree=30, modes=8, amp=3e-4)
        params, N = _params(max_degree=192, grid_size=1024), 40
    else:
        alpha = np.array([GOLD, math.sqrt(2) - 1])
        F = Su11Series.zero(2)
        F.w[(2, 1)], F.w[(0, -1)] = 2e-4, 1e-4 - 5e-5j
        F.u[(1, -1)], F.u[(-1, 1)] = 1e-4 + 2e-5j, 1e-4 - 2e-5j
        params, N = _params(max_degree=12, grid_size=4096), 6
    rule = ModeRule(alpha=alpha, sigma=sigma, window=N,
                    diag_floor=kam._min_divisor_distance(alpha, N, d) / 2,
                    off_floor=kam.RESONANCE_THRESHOLD, keep_w_mean=True)
    Y, F_star, rep = remove_nonresonant(A, F, 1e-9, 0.05, alpha, rule=rule, params=params)
    _assert_equals_stack_sweep(Y, F_star, rep, *_stack_remove_nonresonant(
        A, F, 1e-9, 0.05, alpha, rule, params, rep["grid"]))
    assert _removal_residual(A, F, Y, F_star, alpha) < 1e-10


@pytest.mark.parametrize("d", [1, 2])
def test_remove_nonresonant_rs_rule_equals_stack_sweep(d):
    # the rule of a resonant step: the site stays in the resonant part, the
    # off-diagonal mean is solved for, and the window is the degree cap
    rng = np.random.default_rng(9)
    if d == 1:
        alpha, site = np.array([GOLD]), (4,)
        F = _random_su11_series(rng, degree=30, modes=8, amp=3e-4)
        params, N = _params(max_degree=192, grid_size=1024), 40
    else:
        alpha, site = np.array([GOLD, math.sqrt(2) - 1]), (1, -2)
        F = Su11Series.zero(2)
        F.w[(2, 1)], F.w[(0, -1)], F.w[(0, 0)] = 2e-4, 1e-4 - 5e-5j, 3e-5j
        F.u[(1, -1)], F.u[(-1, 1)] = 1e-4 + 2e-5j, 1e-4 - 2e-5j
        params, N = _params(max_degree=12, grid_size=4096), 6
    sigma = (float(np.dot(site, alpha)) / 2 + 1e-5) % 1.0
    F.w[site] = 2e-4
    A = np.diag([np.exp(2j * np.pi * sigma), np.exp(-2j * np.pi * sigma)])
    distance = dist_to_integers(2 * sigma - float(np.dot(site, alpha)))
    rule = ModeRule(alpha=alpha, sigma=sigma, window=params.max_degree,
                    diag_floor=kam._min_divisor_distance(alpha, N, d) / 2,
                    off_floor=min(kam.RESONANCE_THRESHOLD, max(2 * distance, 10 * kam.DIVISOR_FLOOR)),
                    exclude=site, keep_w_mean=False)
    Y, F_star, rep = remove_nonresonant(A, F, kam.DIVISOR_FLOOR, 0.05, alpha, rule=rule,
                                        params=params)
    _assert_equals_stack_sweep(Y, F_star, rep, *_stack_remove_nonresonant(
        A, F, kam.DIVISOR_FLOOR, 0.05, alpha, rule, params, rep["grid"]))
    # the site stays, the off-diagonal mean is gone
    assert abs(F_star.w[site] - 2e-4) < 2e-5 and abs(F_star.w.mean()) < 1e-12
    assert _removal_residual(A, F, Y, F_star, alpha) < 1e-10


def test_remove_nonresonant_on_a_capped_grid_equals_stack_sweep():
    # the grid is capped at 64 points below the degree cap 48: the input
    # (degree 40) folds onto the grid, and u's modes +32 and -32, beyond the
    # window and so left in F*, stay apart though they share a grid residue
    rng = np.random.default_rng(5)
    sigma, alpha = 0.205, np.array([GOLD])
    A = np.diag([np.exp(2j * np.pi * sigma), np.exp(-2j * np.pi * sigma)])
    F = _random_su11_series(rng, degree=40, modes=6, amp=1e-4)
    F.w[(40,)] = 1e-4
    params = _params(max_degree=48, grid_size=64)
    rule = ModeRule(alpha=alpha, sigma=sigma, window=30, diag_floor=1e-3, off_floor=1e-3)
    Y, F_star, rep = remove_nonresonant(A, F, 1e-9, 0.05, alpha, rule=rule, params=params)
    assert rep["grid"] == 64 and F.degree() > 32
    assert F_star.u[(32,)] == np.conj(F_star.u[(-32,)]) != 0
    _assert_equals_stack_sweep(Y, F_star, rep, *_stack_remove_nonresonant(
        A, F, 1e-9, 0.05, alpha, rule, params, rep["grid"]))


@pytest.mark.parametrize("d", [1, 2])
def test_remove_nonresonant_small_divisor_is_the_first_in_c_order(d):
    # about half the planted w modes have a divisor below eta; the sweep
    # names the first such mode of u, else of w, in the C order of the keys
    # (not the smallest divisor), with the modulus solve_homological gives
    alpha, sigma = np.array([GOLD, math.sqrt(2) - 1][:d]), 0.85
    A = np.diag([np.exp(2j * np.pi * sigma), np.exp(-2j * np.pi * sigma)])
    rule = ModeRule(alpha=alpha, sigma=sigma, window=8, diag_floor=1e-3, off_floor=1e-3)
    for seed, plant_u in ((0, True), (18, False)):
        rng = np.random.default_rng(seed)
        F = Su11Series.zero(d)
        for _ in range(6):
            n, c = tuple(rng.integers(-6, 7, size=d).tolist()), 1e-4 * rng.normal()
            F.w[n] = 1e-4 * (rng.normal() + 1j * rng.normal())
            if plant_u:
                F.u[n], F.u[tuple(-k for k in n)] = c, c
        nre, _ = rule.split(F)
        eta = float(np.median([abs(divisor_w(n, alpha, sigma)) for n in nre.w.coeffs]))
        small = [sorted((n, abs(divisor_w(n, alpha, off))) for n in part.coeffs
                        if abs(divisor_w(n, alpha, off)) < eta)
                 for part, off in ((nre.u, 0.0), (nre.w, sigma))]
        first = (small[0] or small[1])[0][0]
        assert bool(small[0]) == plant_u and len(small[1]) >= 2
        assert first != min(small[0] + small[1], key=lambda m: m[1])[0]
        with pytest.raises(SmallDivisor) as want:
            solve_homological(None, nre, alpha, floor=eta, sigma=sigma)
        with pytest.raises(SmallDivisor) as got:
            remove_nonresonant(A, F, eta, 0.02, alpha, rule=rule, params=_params())
        assert got.value.mode == want.value.mode == first
        assert got.value.value == want.value.value


def test_remove_nonresonant_grid_doubles_when_content_outgrows_it():
    # degree-12 content starts on 256 points; the sweeps spread it past
    # degree 64, so the call restarts on 512 points, below the 1,024 of the
    # cap, and matches the sweep on the cap grid
    rng = np.random.default_rng(11)
    alpha, sigma = np.array([GOLD]), 0.85
    A = np.diag([np.exp(2j * np.pi * sigma), np.exp(-2j * np.pi * sigma)])
    F = _random_su11_series(rng, degree=12, modes=6, amp=1e-2)
    params = _params(max_degree=192, grid_size=1024)
    rule = ModeRule(alpha=alpha, sigma=sigma, window=40,
                    diag_floor=kam._min_divisor_distance(alpha, 40, 1) / 2,
                    off_floor=kam.RESONANCE_THRESHOLD, keep_w_mean=True)
    Y, F_star, rep = remove_nonresonant(A, F, 1e-9, 0.05, alpha, rule=rule, params=params)
    cap = params.grid_for(params.max_degree)
    assert params.grid_for(4 * int(F.degree())) == 256 and rep["grid"] == 512 and cap == 1024
    assert _removal_residual(A, F, Y, F_star, alpha) < 1e-10
    Y_ref, F_ref, _, _ = _stack_remove_nonresonant(A, F, 1e-9, 0.05, alpha, rule, params, cap)
    for got, want in ((Y.u, Y_ref.u), (Y.w, Y_ref.w), (F_star.u, F_ref.u), (F_star.w, F_ref.w)):
        K = max(got.K, want.K)
        assert np.max(np.abs(got.padded(K) - want.padded(K))) <= 1e-14
    # the restart on 512 points is the stack sweep on 512 points
    _assert_equals_stack_sweep(Y, F_star, rep, *_stack_remove_nonresonant(
        A, F, 1e-9, 0.05, alpha, rule, params, rep["grid"]))


def _on_lattice(F, g):
    """The su(1,1) series F with each key n moved to g n."""
    def dilated(S):
        keys, vals = S.modes()
        return FourierSeries.from_modes(S.d, g * keys, vals)
    return Su11Series(dilated(F.u), dilated(F.w))


@pytest.mark.parametrize("rs", [False, True])
def test_remove_nonresonant_on_a_lattice_equals_the_dense_sweep(rs):
    # content on the multiples of 4: the sweep runs on the lattice (G / 4
    # points) and gives the dense stack sweep's Y and F* to the rounding of
    # its O(1) grid values (PRODUCT_ROUNDING; 1.9e-16 measured), on the
    # lattice, and its sweep norms to that rounding weighted by e^{|n| h} (up
    # to 1.5e4 here)
    rng = np.random.default_rng(11)
    sigma, alpha = (0.85, np.array([GOLD])) if not rs else (
        (float(np.dot((8,), [GOLD])) / 2 + 1e-5) % 1.0, np.array([GOLD]))
    A = np.diag([np.exp(2j * np.pi * sigma), np.exp(-2j * np.pi * sigma)])
    F = _on_lattice(_random_su11_series(rng, degree=8, modes=8, amp=3e-4), 4)
    params = _params(max_degree=192, grid_size=1024)
    rule = _window_rule(A, alpha, 40)
    if rs:
        rule = dataclasses.replace(rule, window=params.max_degree, exclude=(8,),
                                   keep_w_mean=False)
    Y, F_star, rep = remove_nonresonant(A, F, 1e-9, 0.05, alpha, rule=rule, params=params)
    assert rep["stride"] == 4 and rep["grid"] >= 128
    Y_ref, F_ref, sweeps, dropped = _stack_remove_nonresonant(A, F, 1e-9, 0.05, alpha,
                                                              rule, params, rep["grid"])
    assert len(rep["sweeps"]) == len(sweeps) >= 3
    assert rep["sweeps"][0] == pytest.approx(sweeps[0], rel=1e-15)
    assert np.allclose(rep["sweeps"], sweeps, rtol=0, atol=1e-14)
    assert rep["dropped_mass"] == dropped == 0.0
    for got, want in ((Y.u, Y_ref.u), (Y.w, Y_ref.w), (F_star.u, F_ref.u), (F_star.w, F_ref.w)):
        K = max(got.K, want.K)
        assert np.max(np.abs(got.padded(K) - want.padded(K)), initial=0.0) <= PRODUCT_ROUNDING
        assert got.stride % 4 == 0
    assert _removal_residual(A, F, Y, F_star, alpha) < 1e-12


def test_trace_slope_sums_the_lattice_of_dinv():
    # D^-1 on the multiples of 8 (halved keys): the lattice sum gives the
    # dense sum over every slot within 1e-15 relative
    rng = np.random.default_rng(4)
    keys = 8 * np.arange(-6, 7)[:, None]
    Dinv = FourierSeries.from_modes(1, keys, rng.normal(size=(13, 2, 2))
                                    + 1j * rng.normal(size=(13, 2, 2)), halved=True,
                                    kind="matrix")
    alpha = np.array([GOLD])
    for re_a in (0.7, -0.7):
        state = KamState(j=0, A=np.array([[re_a + 0.1j, 0.2], [0.2, re_a - 0.1j]]),
                         f=Su11Series.zero(1), pending=[], W=Su11Series.zero(1), Dinv=Dinv,
                         alpha=alpha, n_tilde=(0,))
        Z = kam.M_CONJ_INV @ Dinv.block @ kam.M_CONJ
        Zs = kam.M_CONJ_INV @ Dinv.shift(alpha).block @ kam.M_CONJ
        Zr = np.flip(Z, axis=0)
        dense = np.sum(Zs[..., 1, 1] * Zr[..., 0, 0] - Zs[..., 1, 0] * Zr[..., 0, 1]).real
        assert kam._trace_slope(state) == pytest.approx(math.copysign(0.5, re_a) * dense,
                                                        rel=1e-15)


def _poison_sweep(monkeypatch, target="pair_product", value=np.nan):
    """Set the first value of row 0 of the sweep's ``target`` to ``value``
    while armed[0]: of its three-factor product ("pair_product"), whose A is
    then NaN, or -1 for value -1, or of its grid values ("grid_values"),
    whose row 0 is Y's u."""
    real = getattr(kam, target)
    armed = [True]

    def poisoned(*args):
        out = real(*args)
        if armed[0] and (target != "pair_product" or len(args) == 3):
            out[0][0] = value
        return out

    monkeypatch.setattr(kam, target, poisoned)
    return armed


def test_remove_nonresonant_nonfinite_values_raise_newton_diverged(monkeypatch):
    _poison_sweep(monkeypatch)
    A = np.diag([np.exp(2j * np.pi * 0.85), np.exp(-2j * np.pi * 0.85)])
    F = _random_su11_series(np.random.default_rng(1), degree=10, modes=6, amp=2e-4)
    with pytest.raises(NewtonDiverged, match="non-finite"):
        remove_nonresonant(A, F, 1e-9, 0.02, [GOLD], _window_rule(A, [GOLD], 24),
                           _params())


@pytest.mark.parametrize("target, value, match", [
    ("pair_product", -1.0, "outside log injectivity radius"),  # rotation angle pi
    ("grid_values", np.inf, "non-finite"),  # an overflowing Y makes the exp NaN
    ("grid_values", 1e300, "non-finite"),
])
def test_remove_nonresonant_sweep_failure_is_newton_diverged(monkeypatch, target, value,
                                                             match):
    # the sweep's failure is reported by its NewtonDiverged alone, no warning
    _poison_sweep(monkeypatch, target, value)
    A = np.diag([np.exp(2j * np.pi * 0.85), np.exp(-2j * np.pi * 0.85)])
    F = _random_su11_series(np.random.default_rng(1), degree=10, modes=6, amp=2e-4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NewtonDiverged, match=match):
            remove_nonresonant(A, F, 1e-9, 0.02, [GOLD], _window_rule(A, [GOLD], 24),
                               _params())


def _search_with_fifth_poisoned(monkeypatch, armed):
    """Run the edge search of a real one-label reduction whose fifth reduction
    (past the upper edge) runs with ``armed`` set; returns its record and the
    energies reduced."""
    real = kam._reduce_at_energy
    energies = []

    def reduce(V, alpha, E, params, max_steps, plan=None):
        energies.append(E)
        armed[0] = len(energies) == 5
        return real(V, alpha, E, params, max_steps, plan)

    monkeypatch.setattr(kam, "_reduce_at_energy", reduce)
    V = Potential(labels=[(1,)], coefficients=[0.1], k_exponent=0.0)
    try:
        search = run_reducibility(V, [GOLD], {"label": 1}, params=_params()).edge_search
    except NonConvergence as exc:
        search = exc.edge_search
    return search, energies


def test_edge_search_records_nonfinite_sweep(monkeypatch):
    # the fifth reduction gets a NaN in its sweep and must be recorded as a
    # failure, not escape as a numpy error
    search, energies = _search_with_fifth_poisoned(monkeypatch, _poison_sweep(monkeypatch))
    assert search["failures"] == [["NewtonDiverged", energies[4]]]
    assert search["evaluations"] == len(energies)


def test_edge_search_records_log_domain_exit(monkeypatch):
    # the fifth reduction's sweep product leaves the log's domain; the search
    # records it instead of aborting on the log's error
    armed = _poison_sweep(monkeypatch, "pair_product", -1.0)
    search, energies = _search_with_fifth_poisoned(monkeypatch, armed)
    assert search["failures"] == [["NewtonDiverged", energies[4]]]
    assert search["evaluations"] == len(energies)


# ---------------------------------------------------------------------------
# one step


def test_kam_step_trivial():
    params = _params()
    A = to_su11(np.array([[2 * math.cos(2 * math.pi * 0.17), -1.0], [1.0, 0.0]]))
    st = _state(A, Su11Series.zero(1), params)
    new, rep = kam_step(st, params)
    assert rep.case == "trivial"
    assert np.allclose(new.A, A)
    assert new.stopped


def test_kam_step_nr_synthetic():
    # 2 sigma = 0.309 maximizes the distance to every <n, alpha> with |n| <= 24
    params = _params()
    A = np.diag([np.exp(2j * np.pi * 0.1545), np.exp(-2j * np.pi * 0.1545)])
    f = Su11Series.zero(1)
    f.w[(3,)] = 2e-6
    f.u[(2,)] = 1e-6
    f.u[(-2,)] = 1e-6
    st = _state(A, f, params)
    new, rep = kam_step(st, params)
    assert rep.case == "NR"
    assert rep.residual < 1e-9
    assert rep.norm_after < 1e-2 * rep.norm_before
    # constant part moved only slightly
    assert np.max(np.abs(new.A - A)) < 5e-6


def test_kam_step_rs_synthetic():
    params = _params()
    offset = 1e-5
    sigma = (4 * GOLD / 2 + offset) % 1.0
    theta = 2 * math.pi * sigma
    A = np.diag([np.exp(1j * theta), np.exp(-1j * theta)])
    f = Su11Series.zero(1)
    f.w[(1,)] = 1e-4
    f.w[(4,)] = 2e-4
    st = _state(A, f, params)
    new, rep = kam_step(st, params)
    assert rep.case == "RS"
    assert rep.site == (4,)
    assert rep.residual < 1e-9
    assert new.n_tilde == (4,)
    # the new constant rotates by at most twice the classification threshold
    thr = min(kam.RESONANCE_THRESHOLD, 1.0)
    # the new constant's angle, cycles in [0, 1/2]: trace 2 cos(2 pi sigma)
    sig_next = math.acos(np.clip(new.A[0, 0].real, -1, 1)) / (2 * math.pi)
    assert min(sig_next, 1 - sig_next) <= 2 * max(thr, offset * 2)


def _criterion_8_instance(case):
    """(A, f) of the criterion-8 non-resonant or resonant step."""
    f = Su11Series.zero(1)
    if case == "NR":
        sigma, f.w[(3,)], f.u[(2,)], f.u[(-2,)] = 0.1545, 2e-6, 1e-6, 1e-6
    else:
        sigma, f.w[(1,)], f.w[(4,)] = (4 * GOLD / 2 + 1e-5) % 1.0, 1e-4, 2e-4
    return np.diag([np.exp(2j * np.pi * sigma), np.exp(-2j * np.pi * sigma)]), f


@pytest.mark.parametrize("case, conjugations", [("NR", 5), ("RS", 2)])
def test_kam_step_works_in_one_eigenframe(monkeypatch, case, conjugations):
    # one diagonalization per step; F~ and W go to the eigenframe once, and an
    # NR step brings F* and W back (and Y, for its y_norm) while an RS step
    # leaves by the half-period rotation
    calls = {"diagonalize_su11": 0, "ad_constant": 0}

    def counted(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    monkeypatch.setattr(kam, "diagonalize_su11", counted("diagonalize_su11",
                                                         kam.diagonalize_su11))
    monkeypatch.setattr(Su11Series, "ad_constant", counted("ad_constant",
                                                           Su11Series.ad_constant))
    A, f = _criterion_8_instance(case)
    params = _params()
    rep = kam_step(_state(A, f, params), params)[1]
    assert rep.case == case and rep.residual < 1e-9
    assert calls == {"diagonalize_su11": 1, "ad_constant": conjugations}


@pytest.mark.parametrize("case", ["NR", "RS"])
def test_step_inverse_is_the_adjugate_of_the_certified_conjugator(monkeypatch, case):
    # from D = I, one step leaves D^-1 = B_step^-1, exact up to rounding on
    # the doubled torus; the products are e^Y P, L (e^Y P) = B_step, D^-1 adj B
    products = []

    def recorded_multiply(*args, _real=kam.multiply, **kw):
        products.append(_real(*args, **kw))
        return products[-1]

    monkeypatch.setattr(kam, "multiply", recorded_multiply)
    A, f = _criterion_8_instance(case)
    params = _params()
    new, rep = kam_step(_state(A, f, params), params)
    assert rep.case == case
    _, B_step, Dinv = products
    assert Dinv is new.Dinv
    pts = np.random.default_rng(5).uniform(0, 4 * math.pi, size=(16, 1))
    prod = Dinv.sample(pts) @ B_step.sample(pts)
    assert np.max(np.abs(prod - np.eye(2))) < 1e-12


def _probes(rng):
    return rng.uniform(0, 2 * math.pi, size=(12, 1))


def test_split_mean_folds_the_mean_into_the_constant():
    # G has modes besides its mean, so f_next is the grid log of e^{-<G>} e^{G}
    rng = np.random.default_rng(21)
    G = _random_su11_series(rng, degree=4, modes=5, amp=1e-3)
    G.u[(0,)] = 2e-3
    G.w[(0,)] = 1e-3 - 5e-4j
    A_base = np.diag([np.exp(2j * np.pi * 0.21), np.exp(-2j * np.pi * 0.21)])
    A_next, f_next = kam._split_mean(A_base, G, _params())
    assert f_next.degree() > 0
    assert np.array_equal(A_next, A_base @ su11_exp(su11_element(2e-3, 1e-3 - 5e-4j)))
    pts = _probes(rng)
    lhs = A_next @ su11_exp(f_next.sample(pts))
    rhs = A_base @ su11_exp(G.sample(pts))
    assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_combine_f_and_label_is_the_product_of_both_exponentials():
    # a nonzero f and a pending label: F~ is the grid log of e^{f} e^{V W}
    rng = np.random.default_rng(22)
    params = _params()
    f = _random_su11_series(rng, degree=3, modes=4, amp=1e-3)
    state = _state(np.eye(2, dtype=complex), f, params)
    state.W.w[(1,)] = 0.2 - 0.1j
    V_modes = potential_modes(Potential(labels=[(2,)], coefficients=[3e-3], k_exponent=0.0))
    F_t, _ = kam._combine_f_and_label(state, V_modes, params)
    pts = _probes(rng)
    keys, vals = V_modes
    V = (np.exp(1j * pts @ keys.T) @ vals).real
    lhs = su11_exp(F_t.sample(pts))
    rhs = su11_exp(f.sample(pts)) @ su11_exp(V[:, None, None] * state.W.sample(pts))
    assert np.max(np.abs(lhs - rhs)) < 1e-13


def _random_lattice_su11(rng, d, g, degree, amp):
    """A random su(1,1) series on T^d with its modes on the multiples of g,
    up to ``degree`` lattice keys per axis, u real-valued."""
    F = Su11Series.zero(d)
    for _ in range(5):
        n = tuple(g * int(k) for k in rng.integers(-degree, degree + 1, size=d))
        c = amp * (rng.normal() + 1j * rng.normal())
        F.w[n] = c
        F.u[n] = F.u[n] + c
        F.u[tuple(-k for k in n)] = F.u[tuple(-k for k in n)] + np.conj(c)
    return F


@pytest.mark.parametrize("d", [1, 2])
def test_ad_series_entry_rows_equal_the_matrix_transform(d):
    # _ad_series reads E's four entries as scalar rows of one lattice_values
    # call with W's (u, w): the rows give E's matrix-kind transform bit for
    # bit, and Ad(E) W the bits of the route with one transform of E and one
    # of W
    rng = np.random.default_rng(40 + d)
    params = _params(max_degree=48, grid_size=256)
    Y = _random_lattice_su11(rng, d, 4, 3, 1e-2)
    E = kam.exp_series(Y, params.grid_for(int(Y.degree()) * 2 + 8, d), params.max_degree)
    W = _random_lattice_su11(rng, d, 2, 4, 0.3)
    G = params.grid_for(int(2 * E.degree + W.degree()) + 4, d)
    entries = [FourierSeries.from_block(d, E.block[..., i, j]) for i in (0, 1) for j in (0, 1)]
    vals, g = lattice_values(entries + [W.u, W.w], G)
    [E_v] = grid_values(lattice(E.block[None], g, d), G // g, d)
    assert E.stride % 4 == 0 and E.K > 0 and g == 2
    rows = np.stack(vals[:4], axis=-1).reshape(E_v.shape)
    assert rows.tobytes() == E_v.tobytes()
    uu, ww = grid_values(lattice(W.blocks(), g, d), G // g, d)
    prod = E_v @ su11_element(uu.real, ww) @ _adjugate(E_v)
    want = kam.su11_series_from_samples(prod[:, 0, 0].imag, prod[:, 0, 1], d,
                                        max_degree=params.max_degree, stride=g)
    got = kam._ad_series(E, W, params)
    for a, b in ((got.u, want.u), (got.w, want.w)):
        assert a.block.shape == b.block.shape and a.block.tobytes() == b.block.tobytes()
        assert a.dropped_mass == b.dropped_mass


def test_resonant_step_counts_every_truncation_of_its_conjugator(monkeypatch):
    # criterion 11 at max_degree 32: the one resonant step truncates the
    # sweeps' logs (1.9e-7), e^Y (6.7e-8) and the product Q (e^Y P) (6.6e-6),
    # and its dropped_mass counts each of them, with e^Y P (none here); B^-1
    # is the exact adjugate and truncates nothing, and the first step's D^-1
    # is adj B itself, no product with the identity
    freq = frequency_vector(golden_mean(80), gamma=0.5, tau=1.5)
    sched = build_schedule(10, 0.9, depth=6)
    ks = construct_label_set(freq, sched, j1=0, spacing=2, count=1)
    params = KamParams(tau=1.5, k_exponent=2.0, schedule=sched, max_degree=32,
                       grid_size=2048, conj_residual_tol=1e-4, seed=1)
    calls = {}
    for name in ("remove_nonresonant", "exp_series", "multiply"):
        def recorded_call(*args, _real=getattr(kam, name), _name=name, **kw):
            out = _real(*args, **kw)
            calls.setdefault(_name, []).append((args, out))
            return out
        monkeypatch.setattr(kam, name, recorded_call)
    state, reports = kam._reduce_at_energy(build_potential(ks, k=2.0), freq.floats(),
                                           1.8806000220263146, params, 24)
    assert [r.case for r in reports] == ["RS"]
    [(_, (_, _, sweeps))] = calls["remove_nonresonant"]
    [(_, e_y)] = calls["exp_series"]
    # e^Y P, then Q (e^Y P); no third product
    [(a0, inner), (a1, outer)] = calls["multiply"]
    assert a0[0] is e_y and a1[1] is inner
    assert state.Dinv.halved and state.Dinv.dropped_mass == 0.0
    np.testing.assert_array_equal(state.Dinv.block, kam._adjugate(outer.block))
    assert sweeps["dropped_mass"] > 0 and e_y.dropped_mass > 0 and outer.dropped_mass > 0
    assert reports[0].dropped_mass == pytest.approx(
        sweeps["dropped_mass"] + e_y.dropped_mass + inner.dropped_mass + outer.dropped_mass,
        rel=1e-12)
    assert reports[0].dropped_mass == pytest.approx(6.9025e-6, rel=1e-3)


def test_kam_step_rejects_a_step_residual_above_tolerance(monkeypatch):
    # the criterion-8 non-resonant instance, with the gate below its residual
    monkeypatch.setattr(kam, "PROBE_COUNT", 256)
    A = np.diag([np.exp(2j * np.pi * 0.1545), np.exp(-2j * np.pi * 0.1545)])
    f = Su11Series.zero(1)
    f.w[(3,)] = 2e-6
    f.u[(2,)] = 1e-6
    f.u[(-2,)] = 1e-6
    params = _params()
    residual = kam_step(_state(A, f, params), params)[1].residual
    assert 0 < residual < 1e-9
    params = _params(conj_residual_tol=residual / 2)
    with pytest.raises(StateInvalid, match=r"step 0 conjugacy residual .* exceeds"):
        kam_step(_state(A, f, params), params)


def test_remove_nonresonant_stall_is_newton_diverged(monkeypatch):
    # a homological solve that removes a tenth of each mode contracts the
    # non-resonant norm by 0.9 per sweep, above the stall ratio 0.5
    real = kam._divide
    monkeypatch.setattr(kam, "_divide", lambda *args: 0.1 * real(*args))
    A = np.diag([np.exp(2j * np.pi * 0.85), np.exp(-2j * np.pi * 0.85)])
    F = _random_su11_series(np.random.default_rng(1), degree=10, modes=6, amp=2e-4)
    with pytest.raises(NewtonDiverged, match=r"non-resonant norm stalled at .* \(sweep 2\)"):
        remove_nonresonant(A, F, 1e-9, 0.02, [GOLD], _window_rule(A, [GOLD], 24),
                           _params())


def test_remove_nonresonant_sweep_cap_is_newton_diverged(monkeypatch):
    # one sweep leaves a second-order remainder far above the Newton stop
    monkeypatch.setattr(kam, "NEWTON_MAX_SWEEPS", 1)
    A = np.diag([np.exp(2j * np.pi * 0.85), np.exp(-2j * np.pi * 0.85)])
    F = _random_su11_series(np.random.default_rng(1), degree=10, modes=6, amp=2e-4)
    with pytest.raises(NewtonDiverged, match="Newton sweep cap reached without contraction"):
        remove_nonresonant(A, F, 1e-9, 0.02, [GOLD], _window_rule(A, [GOLD], 24),
                           _params())


def test_window_is_twice_the_next_level_between_8_and_max_degree():
    # max_degree caps the window; with no schedule, or past its depth (an
    # infinite level), the window is max_degree
    assert [_params(schedule=_window_schedule(N)).window(0)
            for N in (4, 8, 24, 96, 200)] == [8, 8, 24, 96, 96]
    assert _params(schedule=None).window(3) == 96
    assert _params(schedule=SimpleNamespace(level_float=lambda j: math.inf)).window(0) == 96


def test_strict_unmet_lists_every_missed_hypothesis():
    # the criterion-11 configuration misses all three
    desk = KamParams(tau=1.5, k_exponent=2.0, schedule=build_schedule(10, 0.9, depth=6))
    unmet = desk.strict_unmet()
    assert len(unmet) == 3
    assert "62 tau" in unmet[0] and "90 tau" in unmet[1] and "--strict" in unmet[2]
    strict = build_schedule(2000, 0.9, depth=3, strict=True)
    assert KamParams(tau=1.0, k_exponent=100.0, schedule=strict).strict_unmet() == []
    assert len(KamParams(tau=1.0, k_exponent=100.0).strict_unmet()) == 1


def test_kam_step_rejects_nonelliptic_with_large_perturbation():
    params = _params()
    A = to_su11(np.diag([1.5, 1 / 1.5]))
    f = Su11Series.zero(1)
    f.w[(2,)] = 1e-3
    st = _state(A, f, params)
    with pytest.raises(StateInvalid):
        kam_step(st, params)


# ---------------------------------------------------------------------------
# diagnostics


def test_compute_diagnostics_constant():
    W = Su11Series.constant(1, 0.4, 0.3 - 0.1j)
    out = compute_diagnostics(W, (0,), h=0.1)
    b = abs(0.3 - 0.1j)
    assert out["xi"] == pytest.approx(b)
    assert out["M"] == pytest.approx(b + 0.4)
    assert out["m"] == pytest.approx(0.5 * (b + 0.4))


def test_compute_diagnostics_zero():
    W = Su11Series.zero(1)
    out = compute_diagnostics(W, (0,), h=0.1)
    assert out["xi"] == 0 and out["M"] == 0 and out["m"] == 0


def test_compute_diagnostics_m_monotone_in_ntilde():
    rng = np.random.default_rng(3)
    W = _random_su11_series(rng, degree=6, modes=8, amp=1.0)
    prev = math.inf
    for nt in (0, 2, 5, 9):
        out = compute_diagnostics(W, (nt,), h=0.0)
        assert out["m"] <= prev + 1e-15
        prev = out["m"]


# ---------------------------------------------------------------------------
# full pipeline, constant cases


def test_run_reducibility_free_cocycle_edge():
    res = run_reducibility(None, [GOLD], {"energy": 2.0}, params=_params())
    assert abs(res.zeta) == pytest.approx(2.0, abs=1e-9)
    assert res.conj_residual < 1e-9
    assert res.zeta < 0  # bottom edge of the upper infinite gap
    assert res.label == (0,)
    assert res.edge_search is None and res.as_dict()["edge_search"] is None


def test_run_reducibility_rejects_a_target_without_energy_or_label():
    with pytest.raises(QpslError, match="target must contain 'energy', 'label' or 'label_index'"):
        run_reducibility(None, [GOLD], {"edge": "upper"}, params=_params())


def test_run_reducibility_free_cocycle_lower_edge_sign():
    res = run_reducibility(None, [GOLD], {"energy": -2.0}, params=_params())
    assert abs(res.zeta) == pytest.approx(2.0, abs=1e-9)
    assert res.zeta > 0  # top edge of the lower infinite gap


# ---------------------------------------------------------------------------
# edge search on a planted gap


# free-cocycle guess 2 cos(2 pi dist(GOLD / 2)) for label (1,), and a gap
# around it; run_reducibility steps by 0.4 / 64 for V = None
_E0 = 2 * math.cos(2 * math.pi * dist_to_integers(GOLD / 2))
_GAP = (_E0 - 0.0203, _E0 + 0.0291)
_STEP = 0.4 / 64


def _plant(planted, fail=None):
    """An evaluate for qpsl.edge on the planted planted(E) = (t, dt/dE): it
    returns t as the indicator |Re a| - 1 of the free cocycle at 2 + 2 t
    reads it (Re a = 1 + t, rounded to the float grid at 1.0), with dt/dE as
    its payload; energies inside ``fail`` raise NewtonDiverged.  Returns it
    with the log of (E, t) per call, -inf for a failure."""
    log = []

    def evaluate(E):
        if fail is not None and fail[0] < E < fail[1]:
            log.append((E, -math.inf))
            raise NewtonDiverged("planted failure")
        t, slope = planted(E)
        A = to_su11(np.array([[2.0 + 2.0 * t, -1.0], [1.0, 0.0]]))
        log.append((E, abs(float(A[0, 0].real)) - 1.0))
        return log[-1][1], slope

    return evaluate, log


def _plant_gap(fail=None, slope=1.0, gap=_GAP):
    """t = slope min(E - lo, hi - E) on the planted gap (lo, hi)."""
    lo, hi = gap
    return _plant(lambda E: (slope * min(E - lo, hi - E),
                             slope if E - lo < hi - E else -slope), fail)


# a parabolic gap t = w^2 - (E - Ec)^2 around the free-cocycle guess: its
# edges lie 10.7 steps above and 8.5 below _E0
_PARABOLA = (_E0 + 0.0071, 0.06)


def _plant_parabola(fail=None):
    Ec, w = _PARABOLA
    return _plant(lambda E: (w * w - (E - Ec) ** 2, -2.0 * (E - Ec)), fail)


def _locate(evaluate, edge, search=None):
    """The ``edge`` of a planted gap by qpsl.edge from _E0 on steps of _STEP,
    NewtonDiverged counted as a failure, as run_reducibility searches for V =
    None: returns the edge energy and the record ``search`` (a new one by
    default)."""
    search = {"evaluations": 0, "failures": []} if search is None else search
    indicator = recorded(evaluate, (NewtonDiverged,), search)
    t0, slope0 = indicator(_E0)
    E, _ = locate_edge(indicator, lambda slope: slope, _E0, t0, slope0, _STEP, edge, search)
    return E, search


_REDUCE = kam._reduce_at_energy


def _free_reduction_locked(alpha, E, params, max_steps, plan, n_tilde=(1,)):
    """The free cocycle's reduction at E, relabelled as locked to ``n_tilde``
    (label (1,) by default): the free cocycle resonates nowhere (n~ = (0,)),
    and run_reducibility only returns an edge whose reduction locks to its
    label."""
    state, reports = _REDUCE(None, alpha, E, params, max_steps, plan)
    return dataclasses.replace(state, n_tilde=n_tilde), reports


def _planted_reductions(evaluate, n_tilde=(1,)):
    """A stand-in for kam._reduce_at_energy on a planted indicator: at E the
    free cocycle's reduction at 2 + 2 t, whose Re a is 1 + t, for the t
    ``evaluate`` plants (its failures raise), locked to ``n_tilde``.  kam
    reads the free cocycle's own slope 1/2 from it, not the planted one, so
    the tests through run_reducibility pin no counts."""
    def reduce(V, alpha, E, params, max_steps, plan=None):
        t, _ = evaluate(E)
        return _free_reduction_locked(alpha, 2.0 + 2.0 * t, params, max_steps, plan, n_tilde)

    return reduce


@pytest.mark.parametrize("edge", ["upper", "lower"])
def test_edge_search_brackets_planted_edge(edge):
    evaluate, log = _plant_gap()
    E, search = _locate(evaluate, edge)
    assert dict(log)[E] > 0
    outward = [(abs(e - E), t, e) for e, t in log if (e > E) == (edge == "upper") and e != E]
    gap_to_out, t_out, E_out = min(outward)
    assert t_out <= 0
    assert gap_to_out < 4e-16 * max(1.0, abs(E))
    assert abs(E - _GAP[1 if edge == "upper" else 0]) < 1e-15
    assert search == {"evaluations": len(log), "failures": [], "bracket": [E, E_out]}
    assert search["evaluations"] == {"upper": 6, "lower": 6}[edge]


@pytest.mark.parametrize("slope", [2.0, 10.0, 1000.0])
@pytest.mark.parametrize("edge", ["upper", "lower"])
def test_edge_search_on_a_steep_tent_leaves_each_end_by_an_ulp(edge, slope):
    # |dt/dE| >= 2: the q / 2 crossing is below one ulp of E, and a root
    # landing on the bracket's end moves one ulp off it, not by bisection
    evaluate, log = _plant_gap(slope=slope)
    E, search = _locate(evaluate, edge)
    assert dict(log)[E] > 0 and search["failures"] == []
    assert abs(E - _GAP[1 if edge == "upper" else 0]) < 1e-15
    E_in, E_out = search["bracket"]
    assert abs(E_out - E_in) < 4e-16 * max(1.0, abs(E))
    assert search["evaluations"] == len(log) <= 8


@pytest.mark.parametrize("edge", ["upper", "lower"])
def test_edge_search_stops_at_indicator_resolution(monkeypatch, edge):
    # Re a = 1 + 1e-3 t: the indicator is rounded to the float grid at 1.0, so
    # one quantum of it spans about 2e-13 in E; the search stops once both
    # ends of the bracket read within one quantum of 0
    evaluate, log = _plant_gap(slope=1e-3)
    E, search = _locate(evaluate, edge)
    E_in, E_out = search["bracket"]
    t = dict(log)
    assert E_in == E and t[E_in] > 0 >= t[E_out]
    assert t[E_in] - t[E_out] <= 2 * math.ulp(1.0)
    assert abs(E - _GAP[1 if edge == "upper" else 0]) < 1e-12
    assert search["evaluations"] == len(log)
    # with the stop rule disabled the search closes the bracket to 4e-16
    del log[:]
    monkeypatch.setattr(math, "ulp", lambda x: 0.0)
    _, width_only = _locate(evaluate, edge)
    E_in, E_out = width_only["bracket"]
    assert abs(E_out - E_in) < 4e-16 * max(1.0, abs(E_in))
    assert search["evaluations"] < width_only["evaluations"] == len(log)


def test_edge_search_records_failures_and_bisects():
    # the third evaluation, the outward root E0 + 0.0155 of the quadratic
    # through E0 and E0 + _STEP, lands in the failing window, so the outer
    # end of the bracket stays a failed evaluation (t = -inf) and every later
    # energy must be the midpoint of the bracket
    fail = (_E0 + 0.014, _E0 + 0.017)
    evaluate, log = _plant_gap(fail=fail)
    search = {"evaluations": 0, "failures": []}
    with pytest.raises(NonConvergence) as info:
        _locate(evaluate, "upper", search)
    first = next(i for i, (_, t) in enumerate(log) if t == -math.inf)
    E_in, E_out = log[first - 1][0], log[first][0]
    for E, t in log[first + 1:]:
        assert E == 0.5 * (E_in + E_out)
        assert t > 0 or t == -math.inf
        if t > 0:
            E_in = E
        else:
            E_out = E
    # the bracket closed on a failure, so the edge is ambiguous and the
    # search raises instead of returning the window's boundary
    assert abs(E_out - E_in) < 4e-16 * max(1.0, abs(E_in))
    assert abs(E_in - fail[0]) < 1e-15
    failed = [["NewtonDiverged", E] for E, t in log if t == -math.inf]
    assert len(failed) > 1
    assert failed[-1][1] == E_out
    assert search == {"evaluations": len(log), "failures": failed, "bracket": [E_in, E_out]}
    msg = str(info.value)
    assert f"NewtonDiverged at E = {E_out!r}" in msg
    assert f"after {len(log)} evaluations" in msg


def test_edge_search_records_failure_outside_gap():
    # on the quartic gap t = (w^4 - (E - Ec)^4) / w^2, flatter inside than
    # the quadratic through its last two slopes, the move from E0 + 10.23
    # steps overshoots the upper edge Ec + w = E0 + 0.0671 by 6.3e-5 into a
    # failing window just past it; the bisection that follows reaches a
    # finite t <= 0 1.3e-5 past the edge, so the search closes on the true
    # edge and returns
    Ec, w = _PARABOLA
    fail = (Ec + w + 5e-5, Ec + w + 1e-4)
    evaluate, log = _plant(lambda E: ((w ** 4 - (E - Ec) ** 4) / w ** 2,
                                      -4 * (E - Ec) ** 3 / w ** 2), fail)
    E, search = _locate(evaluate, "upper")
    assert abs(E - (Ec + w)) < 4e-15
    assert dict(log)[E] > 0
    failed = [["NewtonDiverged", e] for e, t in log if t == -math.inf]
    assert failed == [["NewtonDiverged", log[7][0]]] and len(log) == 17
    E_out = min(e for e, t in log if e > E)
    assert log[8][0] == 0.5 * (log[6][0] + log[7][0])  # bisection after the failure
    assert search == {"evaluations": len(log), "failures": failed, "bracket": [E, E_out]}


def test_edge_search_stops_bracketing_at_step_40():
    # a gap reaching 50 steps above _E0: the jumps reach step 40 still inside,
    # and the search raises there, each step evaluated once, with its record
    evaluate, log = _plant_gap(gap=(_GAP[0], _E0 + 50 * _STEP))
    search = {"evaluations": 0, "failures": []}
    with pytest.raises(NonConvergence, match=r"could not bracket the upper edge") as info:
        _locate(evaluate, "upper", search)
    energies = [E for E, _ in log]
    assert len(set(energies)) == len(energies) and all(t > 0 for _, t in log)
    assert str(info.value).endswith(f"from E = {energies[-1]}")
    assert abs(energies[-1] - (_E0 + 40 * _STEP)) < 1e-14
    assert search == {"evaluations": len(log), "failures": []}


def test_edge_search_without_a_gap_interior_is_target_not_locked(monkeypatch):
    # every reduction reads t <= 0: the search reduces at the free-cocycle
    # guess alone and refuses, naming the guess and its t
    real, energies = kam._reduce_at_energy, []

    def fake(V, alpha, E, params, max_steps, plan=None):
        energies.append(E)
        return real(None, alpha, 0.0, params, max_steps, plan)

    monkeypatch.setattr(kam, "_reduce_at_energy", fake)
    msg = (rf"guess E0 = {_E0!r} for label \(1,\) reads t = -1\.000e\+00; the search "
           r"starts only where t > 0")
    with pytest.raises(TargetNotLocked, match=msg) as info:
        run_reducibility(None, [GOLD], {"label": 1}, params=_params())
    assert energies == [_E0]
    assert info.value.edge_search == {"evaluations": 1, "failures": []}


def test_edge_search_refuses_a_guess_outside_the_gap_or_failing(monkeypatch):
    # a planted gap above the free-cocycle guess: _E0 reads t <= 0, and the
    # search refuses after that one reduction instead of scanning for the gap
    evaluate, log = _plant_gap(gap=(_E0 + 0.01, _E0 + 0.05))
    monkeypatch.setattr(kam, "_reduce_at_energy", _planted_reductions(evaluate))
    with pytest.raises(TargetNotLocked, match=r"reads t = -1\.000e-02; the search starts") as info:
        run_reducibility(None, [GOLD], {"label": 1, "edge": "upper"}, params=_params())
    assert [E for E, _ in log] == [_E0]
    assert info.value.edge_search == {"evaluations": 1, "failures": []}
    # a failing reduction at the guess is refused the same way and recorded,
    # its energy a plain float in the record and in the message
    evaluate, log = _plant_gap(fail=(_E0 - 1e-3, _E0 + 1e-3))
    monkeypatch.setattr(kam, "_reduce_at_energy", _planted_reductions(evaluate))
    with pytest.raises(TargetNotLocked, match=r"reads t = -inf; the search starts") as info:
        run_reducibility(None, [GOLD], {"label": 1, "edge": "upper"}, params=_params())
    assert log == [(_E0, -math.inf)]
    assert info.value.edge_search == {"evaluations": 1, "failures": [["NewtonDiverged", _E0]]}
    assert type(info.value.edge_search["failures"][0][1]) is float
    assert "np.float64(" not in str(info.value)


@pytest.mark.parametrize("edge", ["upper", "lower"])
def test_edge_search_jumps_to_the_edge_of_a_planted_parabola(edge):
    Ec, w = _PARABOLA
    evaluate, log = _plant_parabola()
    E, search = _locate(evaluate, edge)
    energies = [e for e, _ in log]
    assert search == {"evaluations": len(log), "failures": [], "bracket": search["bracket"]}
    # one quantum of the indicator spans 2**-52 / 2w = 1.9e-15 in E here
    edge_E = Ec + w if edge == "upper" else Ec - w
    assert abs(E - edge_E) < 4e-15

    # oracle: on a parabola the quadratic through E0 + _STEP with the secant
    # of the slopes at E0 and E0 + _STEP as curvature is t itself, so after
    # one step the search jumps to the planted edge, to rounding
    assert energies[:2] == [_E0, _E0 + (1.0 if edge == "upper" else -1.0) * _STEP]
    assert abs(energies[2] - edge_E) < 1e-15
    assert len(log) == {"upper": 4, "lower": 5}[edge]


def test_run_reducibility_rejects_final_residual_above_tolerance(monkeypatch):
    # the planted gap's reductions run at another energy than the searched
    # one, so B does not conjugate the cocycle at the edge, and the run must
    # say so instead of returning; the error carries the search that found
    # the edge
    evaluate, log = _plant_gap()
    monkeypatch.setattr(kam, "_reduce_at_energy", _planted_reductions(evaluate))
    with pytest.raises(NonConvergence, match=r"residual \d\.\d{3}e[+-]\d+ .* exceeds "
                                             r"conj_residual_tol 1\.0e-09") as info:
        run_reducibility(None, [GOLD], {"label": 1, "edge": "upper"}, params=_params())
    search = info.value.edge_search
    assert search == {"evaluations": len(log), "failures": [], "bracket": search["bracket"]}
    assert abs(search["bracket"][0] - _GAP[1]) < 1e-15


def test_edge_target_errors_of_the_final_form_carry_the_search(monkeypatch):
    # the planted gap's reductions end on a constant that is no SU(1,1)
    # matrix (its lower-left entry is not conj b), which _finalize refuses
    # before any residual, with the search that found the edge
    reduce = _planted_reductions(_plant_gap()[0])

    def off_su11(*args, **kw):
        state, reports = reduce(*args, **kw)
        return dataclasses.replace(state, A=state.A + np.array([[0, 0], [1e-3, 0]])), reports

    monkeypatch.setattr(kam, "_reduce_at_energy", off_su11)
    with pytest.raises(QpslError, match=r"matrix is not SU\(1,1\)") as info:
        run_reducibility(None, [GOLD], {"label": 1, "edge": "upper"}, params=_params())
    search = info.value.edge_search
    assert search["failures"] == [] and search["evaluations"] > 1
    assert abs(search["bracket"][0] - _GAP[1]) < 1e-15


def test_edge_of_another_label_is_target_not_locked(monkeypatch):
    # the planted gap's reductions lock to n~ = (2,), another label's
    # resonance: the search finds the edge and then refuses it as label
    # (1,)'s, with its record
    evaluate, log = _plant_gap()
    monkeypatch.setattr(kam, "_reduce_at_energy", _planted_reductions(evaluate, n_tilde=(2,)))
    with pytest.raises(TargetNotLocked, match=r"upper edge at E = .* locks to n~ = \(2,\), "
                                              r"not to label \(1,\)") as info:
        run_reducibility(None, [GOLD], {"label": 1, "edge": "upper"}, params=_params())
    search = info.value.edge_search
    assert search == {"evaluations": len(log), "failures": [], "bracket": search["bracket"]}
    assert abs(search["bracket"][0] - _GAP[1]) < 1e-15


def test_multi_label_upper_edges_refuse_or_fail_with_their_search():
    # K = {4, 9, 43}: the free-cocycle guesses of labels 4 (whose first step
    # fails while label 9's term is pending) and 43 (t = -9.5e-7, outside a
    # gap 5.9e-4 wide) are refused after one reduction each; label 9's edge
    # reduction stops early and fails the final residual gate, and the error
    # carries its search
    freq = frequency_vector(golden_mean(80), gamma=0.5, tau=1.5)
    sched = build_schedule(3, 0.3, depth=10)
    ks = construct_label_set(freq, sched, j1=0, spacing=2, count=3)
    assert ks.labels() == [(4,), (9,), (43,)]
    V = build_potential(ks, k=2.0)
    params = KamParams(tau=1.5, k_exponent=2.0, schedule=sched, max_degree=384,
                       grid_size=2048, conj_residual_tol=1e-9, seed=1)
    searches = {}
    for label, error in ((4, TargetNotLocked), (43, TargetNotLocked), (9, NonConvergence)):
        with pytest.raises(error) as info:
            run_reducibility(V, freq.floats(), {"label": label}, params=params)
        searches[label] = info.value.edge_search
    assert searches[4]["evaluations"] == 1 and len(searches[4]["failures"]) == 1
    assert searches[43] == {"evaluations": 1, "failures": []}
    assert searches[9]["failures"] == [] and searches[9]["evaluations"] > 1


def test_multi_label_lower_edge_of_label_9_returns():
    # K = {4, 9, 43}: label 9's lower edge closes on a reduction that passes
    # the residual gate (its upper edge does not, above)
    freq = frequency_vector(golden_mean(80), gamma=0.5, tau=1.5)
    sched = build_schedule(3, 0.3, depth=10)
    ks = construct_label_set(freq, sched, j1=0, spacing=2, count=3)
    params = KamParams(tau=1.5, k_exponent=2.0, schedule=sched, max_degree=384,
                       grid_size=2048, conj_residual_tol=1e-9, seed=1)
    res = run_reducibility(build_potential(ks, k=2.0), freq.floats(),
                           {"label": 9, "edge": "lower"}, params=params)
    assert res.energy == pytest.approx(0.38598157870401073, rel=0, abs=1e-14)
    assert res.conj_residual <= 1e-9
    assert res.edge_search["failures"] == [] and res.edge_search["evaluations"] <= 9


def test_trace_slope_is_the_closed_form_and_the_finite_difference():
    # criterion 11: at each edge dt/dE is -psl_sign zeta A11 / 2 (the mean
    # trace of perturbation_matrix), and near the upper edge, 1e-4 inside and
    # 3e-4 outside, it is the central difference of t
    freq = frequency_vector(golden_mean(80), gamma=0.5, tau=1.5)
    sched = build_schedule(10, 0.9, depth=6)
    ks = construct_label_set(freq, sched, j1=0, spacing=2, count=1)
    V, alpha = build_potential(ks, k=2.0), np.asarray(freq.floats(), float)
    params = KamParams(tau=1.5, k_exponent=2.0, schedule=sched, max_degree=384,
                       grid_size=2048, conj_residual_tol=1e-9, seed=1)

    def reduced(E):
        return kam._reduce_at_energy(V, alpha, E, params, 24)[0]

    edges = {}
    for edge in ("upper", "lower"):
        res = run_reducibility(V, alpha, {"label_index": 0, "edge": edge}, params=params)
        A11 = edge_data_from_reduction(res, alpha).A11
        want = -res.psl_sign * res.zeta * A11 / 2
        assert kam._trace_slope(reduced(res.energy)) == pytest.approx(want, rel=1e-9), edge
        edges[edge] = res.energy
    h = 1e-6
    for E in (edges["upper"] - 1e-4, edges["upper"] + 3e-4):
        diff = (kam._gap_indicator(reduced(E + h)) - kam._gap_indicator(reduced(E - h))) / (2 * h)
        assert kam._trace_slope(reduced(E)) == pytest.approx(diff, rel=1e-6), E


def test_run_reducibility_interior_not_locked():
    with pytest.raises(TargetNotLocked):
        run_reducibility(None, [GOLD], {"energy": 0.77}, params=_params())


def test_classify_and_solve_d2():
    alpha = np.array([GOLD, math.sqrt(2) - 1])
    # resonance planted at n = (3, -2)
    rho = float(np.dot((3, -2), alpha)) / 2 % 1.0
    cls = classify_resonance(rho, alpha, N=5, threshold=1e-6)
    assert cls.case == "RS"
    assert cls.site == (3, -2)
    # homological solve and functional residual on a 2-torus grid
    sigma = 0.21
    A = np.diag([np.exp(2j * np.pi * sigma), np.exp(-2j * np.pi * sigma)])
    F = Su11Series.zero(2)
    F.w[(2, 1)] = 0.3 - 0.1j
    F.u[(1, -1)] = 0.2 + 0.05j
    F.u[(-1, 1)] = 0.2 - 0.05j
    Y = solve_homological(A, F, alpha)
    g = np.linspace(0, 2 * math.pi, 24, endpoint=False)
    mesh = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)
    lhs = (np.einsum("ij,mjk,kl->mil", np.linalg.inv(A),
                     Y.sample(mesh + 2 * math.pi * alpha), A) - Y.sample(mesh))
    assert np.max(np.abs(lhs + F.sample(mesh))) < 1e-11


def test_remove_nonresonant_d2():
    alpha = np.array([GOLD, math.sqrt(2) - 1])
    sigma = 0.205
    A = np.diag([np.exp(2j * np.pi * sigma), np.exp(-2j * np.pi * sigma)])
    F = Su11Series.zero(2)
    F.w[(2, 1)] = 2e-4
    F.u[(1, -1)] = 1e-4
    F.u[(-1, 1)] = 1e-4
    params = _params(max_degree=12, grid_size=4096)
    Y, F_star, rep = remove_nonresonant(A, F, 1e-9, 0.05, alpha,
                                        _window_rule(A, alpha, 6), params)
    assert _removal_residual(A, F, Y, F_star, alpha) < 1e-10


def test_kam_step_deterministic():
    params = _params()
    offset = 1e-5
    sigma = (4 * GOLD / 2 + offset) % 1.0
    A = np.diag([np.exp(2j * np.pi * sigma), np.exp(-2j * np.pi * sigma)])

    def run_once():
        f = Su11Series.zero(1)
        f.w[(1,)] = 1e-4
        f.w[(4,)] = 2e-4
        st = _state(A, f, params)
        return kam_step(st, params)[1]

    r1, r2 = run_once(), run_once()
    assert r1.as_dict() == r2.as_dict()


# ---------------------------------------------------------------------------
# one plan per call: the edge search's deferred reports and shared set-up


def _criterion_11(seed=1):
    """The criterion-11 potential, alpha and KamParams (one label, 16)."""
    freq = frequency_vector(golden_mean(80), gamma=0.5, tau=1.5)
    sched = build_schedule(10, 0.9, depth=6)
    ks = construct_label_set(freq, sched, j1=0, spacing=2, count=1)
    params = KamParams(tau=1.5, k_exponent=2.0, schedule=sched, max_degree=384,
                       grid_size=2048, conj_residual_tol=1e-9, seed=seed)
    return build_potential(ks, k=2.0), np.asarray(freq.floats(), float), params


def _bits(reports):
    """The reports as JSON: every field, floats by their shortest repr (which
    tells -0.0 from 0.0), so equal strings mean equal bits."""
    return json.dumps([r.as_dict() for r in reports])


@pytest.mark.parametrize("edge", ["upper", "lower"])
def test_edge_search_reports_equal_the_eager_reduction_at_its_energy(edge):
    # the search fills the report-only fields once, for the reduction it
    # returns; they equal those of an eager reduction at the returned energy
    V, alpha, params = _criterion_11()
    res = run_reducibility(V, alpha, {"label_index": 0, "edge": edge}, params=params)
    _, eager = kam._reduce_at_energy(V, alpha, res.energy, params, 24)
    assert [r.case for r in res.reports] == ["RS"]
    assert all(r._step is None for r in res.reports)
    assert None not in (res.reports[0].xi, res.reports[0].big_m, res.reports[0].small_m)
    assert list(res.reports[0].diagnostics) == list(eager[0].diagnostics)
    assert _bits(res.reports) == _bits(eager)


# label 43 of K = {4, 9, 43} at its upper edge energy: per step (xi, M, m,
# t_hat_site) as float.hex, as computed when each step filled its own report
_LABEL_43_STEPS = [
    ("0x1.078a80a0897a7p-1", "0x1.1eff3091cd3ecp+0", "0x1.37f8adc43e8eap-6",
     ["0x0.0p+0", "0x0.0p+0"]),
    ("0x1.08f15266756a5p-1", "0x1.643abfe3d851ep+0", "0x1.d0d0a121c21b9p-15", None),
    ("0x1.08f11834bd23ap-1", "0x1.6562a9ddf9cf2p+0", "0x1.47c76b5109a76p-11",
     ["0x0.0p+0", "0x0.0p+0"]),
    ("0x1.0968cbe06d786p-1", "0x1.050b374ddd982p+1", "0x1.73e865b7d7e1ap-32", None),
    ("0x1.0968cb0fd69e8p-1", "0x1.c1aa92df7428ap+0", "0x1.ea60d477fd996p-14",
     ["0x1.14014917464c7p-15", "-0x1.1dc2f6f331e67p-13"]),
]


def test_label_43_keeps_the_bits_of_its_steps():
    # five resonant steps with W carried across the pending labels 4, 9 and
    # 43: the energy target keeps each step's xi, M, m and t_hat_site, and a
    # reduction run with a plan, whose steps form W only while a label is
    # pending, fills the same reports bit for bit when completed
    freq = frequency_vector(golden_mean(80), gamma=0.5, tau=1.5)
    sched = build_schedule(3, 0.3, depth=10)
    ks = construct_label_set(freq, sched, j1=0, spacing=2, count=3)
    V, alpha = build_potential(ks, k=2.0), np.asarray(freq.floats(), float)
    params = KamParams(tau=1.5, k_exponent=2.0, schedule=sched, max_degree=384,
                       grid_size=2048, conj_residual_tol=1e-9, seed=1)
    E = -0.47210750729450424
    res = run_reducibility(V, alpha, {"energy": E}, params=params)
    got = [(r.xi.hex(), r.big_m.hex(), r.small_m.hex(),
            None if "t_hat_site" not in r.diagnostics
            else [v.hex() for v in r.diagnostics["t_hat_site"]]) for r in res.reports]
    assert got == _LABEL_43_STEPS

    plan = kam._Plan.of_potential(V, alpha, params)
    state, reports = kam._reduce_at_energy(V, alpha, E, params, 24, plan)
    assert state.W is None and state.pending == []
    assert [r.xi for r in reports] == [None] * 5
    assert kam._complete(reports, plan) is not None
    assert _bits(reports) == _bits(res.reports)


def test_edge_search_sets_up_once_and_reports_once(monkeypatch):
    # one criterion-11 upper search: 7 certified kam_step calls, but one
    # W_{j+1} (_ad_series) and one compute_diagnostics, for the returned
    # reduction, and one potential_modes call and one probe draw for its level
    V, alpha, params = _criterion_11()
    calls, seeds = {}, []
    for name in ("kam_step", "_ad_series", "compute_diagnostics", "potential_modes"):
        def counted(*args, _real=getattr(kam, name), _name=name, **kw):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(*args, **kw)
        monkeypatch.setattr(kam, name, counted)
    real_rng = np.random.default_rng

    def rng(seed=None):
        seeds.append(seed)
        return real_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", rng)
    res = run_reducibility(V, alpha, {"label_index": 0}, params=params)
    assert res.edge_search["evaluations"] == 7
    assert calls == {"kam_step": 7, "_ad_series": 1, "compute_diagnostics": 1,
                     "potential_modes": 1}
    [j] = [r.j for r in res.reports]
    assert seeds.count(params.seed + 7 * j + 3) == 1


_DIGEST = """
import hashlib, json, sys
sys.path.insert(0, {tests!r})
from test_kam import _criterion_11
from qpsl.kam import run_reducibility
for seed in {seeds!r}:
    V, alpha, params = _criterion_11(seed)
    res = run_reducibility(V, alpha, {{"label_index": 0}}, params=params)
    print(hashlib.sha256(json.dumps(res.as_dict()).encode()).hexdigest())
"""


def test_no_plan_outlives_its_call():
    # seeds 1, 2, then 1 again in one process each give the bits of a run in
    # a fresh process: nothing one call set up reaches the next
    tests = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(os.path.dirname(tests), "src"), os.environ.get("PYTHONPATH", "")]))

    def digests(seeds):
        out = subprocess.run([sys.executable, "-c", _DIGEST.format(tests=tests, seeds=seeds)],
                             capture_output=True, text=True, env=env, check=True).stdout
        return out.split()

    fresh = [digests((seed,))[0] for seed in (1, 2)]
    assert fresh[0] != fresh[1]
    assert digests((1, 2, 1)) == [fresh[0], fresh[1], fresh[0]]
