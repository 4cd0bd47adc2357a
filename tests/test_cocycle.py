"""SU(1,1) utilities and cocycle dynamics."""

import functools
import itertools
import math

import numpy as np
import pytest
from scipy.linalg import expm

from qpsl.cocycle import _ORBIT_BLOCK, _PIVOT_BLOCK, _su11_log_pair
from qpsl.cocycle import (
    M_CONJ,
    M_CONJ_INV,
    check_su11,
    conjugacy_residual,
    diagonalize_su11,
    from_su11,
    orbit_potential,
    pair_product,
    parabolic_normalize,
    pivot_negatives,
    rotation_matrix,
    rotation_number,
    su11_element,
    su11_exp,
    su11_exp_pair,
    to_su11,
    UhReport,
    uh_test,
)
from qpsl.spectrum import rotation_curve
from qpsl.diophantine import frequency_vector, golden_mean
from qpsl.errors import (NonConvergence, NotElliptic, NotUnipotent, QpslError,
                         SingularConjugator)
from qpsl.fourier import FourierSeries, Potential, amo_potential

GOLD = 0.6180339887498949


def _random_sl2(rng):
    a, b, c = rng.normal(size=3) * 0.8
    return expm(np.array([[a, b], [c, -a]]))


def test_m_conjugation_roundtrip():
    assert np.allclose(M_CONJ @ M_CONJ_INV, np.eye(2))
    assert np.allclose(to_su11(np.eye(2)), np.eye(2))
    rng = np.random.default_rng(0)
    for _ in range(100):
        A = _random_sl2(rng)
        B = to_su11(A)
        ok, err = check_su11(B, tol=1e-9)
        assert ok, err
        assert np.allclose(from_su11(B), A, atol=1e-12)


def test_to_su11_frozen_value():
    B = to_su11(np.array([[2.0, -1.0], [1.0, 0.0]]))
    assert B[0, 0] == pytest.approx(1 - 1j)
    assert B[0, 1] == pytest.approx(1 + 0j)


def test_su11_exp_closed_forms():
    assert np.allclose(su11_exp(su11_element(0.0, 0.0)), np.eye(2))
    th = 0.7
    D = su11_exp(su11_element(th, 0.0))
    assert np.allclose(D, np.diag([np.exp(1j * th), np.exp(-1j * th)]))
    t = 0.45
    H = su11_exp(su11_element(0.0, t))
    assert np.allclose(H, [[np.cosh(t), np.sinh(t)], [np.sinh(t), np.cosh(t)]])


def test_su11_exp_matches_series_exponential():
    rng = np.random.default_rng(1)
    for _ in range(50):
        a = rng.normal()
        b = rng.normal() + 1j * rng.normal()
        C = su11_element(a, b)
        if np.linalg.norm(C, 2) > 2:
            C = C / np.linalg.norm(C, 2)
        got = su11_exp(C)
        # 20-term power series oracle
        term = np.eye(2, dtype=complex)
        acc = np.eye(2, dtype=complex)
        for k in range(1, 21):
            term = term @ C / k
            acc = acc + term
        assert np.max(np.abs(got - acc)) < 1e-10


def test_su11_log_roundtrip():
    rng = np.random.default_rng(2)
    for _ in range(50):
        a = rng.normal() * 0.8
        b = (rng.normal() + 1j * rng.normal()) * 0.5
        C = su11_element(a, b)
        E = su11_exp(C)
        assert np.max(np.abs(su11_element(*_su11_log_pair(E[0, 0], E[0, 1])) - C)) < 1e-9


def test_su11_exp_log_stack_matches_per_matrix_calls():
    rng = np.random.default_rng(5)
    m = 400
    scale = rng.choice([1e-10, 1e-4, 0.1, 1.0], size=m)
    a = rng.normal(size=m) * scale
    b = (rng.normal(size=m) + 1j * rng.normal(size=m)) * scale
    C = np.stack([su11_element(x, y) for x, y in zip(a, b)])
    E = su11_exp(C)
    assert E.shape == (m, 2, 2)
    assert np.array_equal(E, np.stack([su11_exp(c) for c in C]))
    # the log's domain: rotation angles below pi
    ok = (E[:, 0, 0].real >= 1.0) | (np.arccos(np.clip(E[:, 0, 0].real, -1, 1)) < 3.0)
    a_log, b_log = _su11_log_pair(E[ok, 0, 0], E[ok, 0, 1])
    per = [_su11_log_pair(e[0, 0], e[0, 1]) for e in E[ok]]
    assert np.array_equal(a_log, [x for x, _ in per]) and np.array_equal(b_log, [y for _, y in per])
    small = np.linalg.norm(C[ok], axis=(1, 2)) < 2.0
    L = su11_element(a_log[small], b_log[small])
    assert np.max(np.abs(L - C[ok][small])) < 1e-9
    assert su11_exp(C.reshape(20, 20, 2, 2)).shape == (20, 20, 2, 2)


def test_su11_log_pair_rejects_angle_pi():
    at_pi = su11_exp_pair(np.array([math.pi]), np.array([0j]))
    with pytest.raises(QpslError, match="injectivity"):
        _su11_log_pair(*at_pi)
    # one matrix at pi fails the whole stack
    stack = su11_exp_pair(np.array([1.0, math.pi]), np.zeros(2, complex))
    with pytest.raises(QpslError, match="injectivity"):
        _su11_log_pair(*stack)
    a, b = _su11_log_pair(*su11_exp_pair(np.array([3.1, -3.1]), np.zeros(2, complex)))
    assert np.allclose(a, [3.1, -3.1]) and np.array_equal(b, [0, 0])


def test_parabolic_normalize_identity():
    form = parabolic_normalize(np.eye(2, dtype=complex))
    assert form.zeta == 0.0


def test_parabolic_normalize_unipotent_class():
    # A with Im(a) = |b|: the normal form entry is 2 Im(a), residual-verified
    A = np.array([[1 + 0.3j, 0.3j], [-0.3j, 1 - 0.3j]])
    form = parabolic_normalize(A)
    assert form.residual < 1e-10
    assert form.zeta == pytest.approx(0.6, abs=1e-12)
    # rotation conjugations preserve the Frobenius norm of the nilpotent part,
    # which pins |zeta| = 2|b|
    N = from_su11(A) - np.eye(2)
    assert abs(form.zeta) == pytest.approx(np.linalg.norm(N), abs=1e-12)


def test_parabolic_normalize_spectrum_edge():
    A = to_su11(np.array([[2.0, -1.0], [1.0, 0.0]]))
    form = parabolic_normalize(A)
    assert form.residual < 1e-10
    assert form.zeta == pytest.approx(2.0 * A[0, 0].imag, abs=1e-12)
    assert abs(form.zeta) == pytest.approx(2.0)
    # explicit conjugation search over phi confirms the magnitude
    G = np.array([[2.0, -1.0], [1.0, 0.0]])
    best = min(abs((rotation_matrix(-p).T @ G @ rotation_matrix(-p))[1, 0])
               + abs((rotation_matrix(p).T @ G @ rotation_matrix(p))[0, 1] - form.zeta)
               for p in [form.phi])
    R = rotation_matrix(form.phi)
    T = R.T @ G @ R
    assert abs(T[1, 0]) < 1e-12
    assert T[0, 1] == pytest.approx(form.zeta)


def test_parabolic_normalize_random_unipotents():
    rng = np.random.default_rng(3)
    for _ in range(50):
        z = rng.normal()
        phi = rng.uniform(0, 1)
        R = rotation_matrix(phi)
        G = R @ np.array([[1.0, z], [0.0, 1.0]]) @ R.T
        form = parabolic_normalize(to_su11(G))
        assert form.residual < 1e-9
        assert abs(form.zeta) == pytest.approx(abs(z), abs=1e-9)


def test_parabolic_normalize_rejects_elliptic():
    with pytest.raises(NotUnipotent):
        parabolic_normalize(to_su11(rotation_matrix(0.2)))
    # SU(1,1) to 1e-6 and unipotent, but M A M^{-1} has an imaginary part
    with pytest.raises(QpslError, match="conjugated matrix is not real"):
        parabolic_normalize(np.diag([1.0, 1.0 + 1e-7j]))


def test_diagonalize_su11():
    rng = np.random.default_rng(4)
    for _ in range(60):
        b = (rng.normal() + 1j * rng.normal()) * 0.5
        gap = rng.uniform(0.05, 2.0)
        a = float(np.sign(rng.normal())) * math.sqrt(abs(b) ** 2 + gap ** 2)
        A = su11_exp(su11_element(a, b))
        P, rho = diagonalize_su11(A)
        got = P @ A @ np.linalg.inv(P)
        assert np.max(np.abs(got - np.diag([np.exp(1j * rho), np.exp(-1j * rho)]))) < 1e-9
        rho_eff = min(rho, 2 * math.pi - rho)
        assert np.linalg.norm(P, 2) ** 2 <= 2 * (1 + 2 / rho_eff) + 1e-6


def test_diagonalize_norm_bound_small_angle_sweep():
    # the conjugator norm bound stays valid as the angle shrinks
    for gap in (0.5, 0.1, 0.02, 0.004):
        A = su11_exp(su11_element(math.sqrt(0.04 + gap ** 2), 0.2))
        P, rho = diagonalize_su11(A)
        rho_eff = min(rho, 2 * math.pi - rho)
        assert np.linalg.norm(P, 2) ** 2 <= 2 * (1 + 2 / rho_eff) + 1e-6


def test_diagonalize_identity_like():
    A = np.diag([np.exp(0.5j), np.exp(-0.5j)])
    P, rho = diagonalize_su11(A)
    assert rho == pytest.approx(0.5)
    assert np.allclose(np.abs(P @ A @ np.linalg.inv(P)), np.abs(A), atol=1e-12)


def test_diagonalize_rejects_hyperbolic():
    with pytest.raises(NotElliptic):
        diagonalize_su11(to_su11(np.diag([2.0, 0.5])))
    # |Re a| < 1 but not in SU(1,1): the eigenframe does not diagonalize it
    # to diag(e^{i rho}, e^{-i rho}) (det 0.15)
    with pytest.raises(NotElliptic, match=r"diagonalization residual 7\.000e-01"):
        diagonalize_su11(np.diag([0.5, 0.3]))
    # a rotation in SL(2, R) form: both eigenvectors (1, +-i) have J-norm 0
    with pytest.raises(NotElliptic, match="no eigenvector with positive J-norm"):
        diagonalize_su11(np.array([[0.0, 1.0], [-1.0, 0.0]]))


def _schrodinger(V, E, pts):
    """S_E at the points pts (shape (m, d)) by numpy alone."""
    vals = np.zeros(len(pts)) if V is None else V.sample(pts)
    out = np.zeros((len(pts), 2, 2))
    out[:, 0, 0], out[:, 0, 1], out[:, 1, 0] = E - vals, -1.0, 1.0
    return out


def _identity():
    I = FourierSeries(1, kind="matrix")
    I[(0,)] = np.eye(2, dtype=complex)
    return I


def test_schrodinger_matrix_values():
    # B = I conjugates the cocycle to its own matrices [[E - V, -1], [1, 0]]
    pts = np.array([[0.0], [0.3], [0.4]])
    P = amo_potential(0.5)
    for V, E, want in ((None, 0.0, [[0.0, -1.0], [1.0, 0.0]]),
                       (None, 2.0, [[2.0, -1.0], [1.0, 0.0]]),
                       (P, 1.0, [[[1.0 - P.sample(p[0]), -1.0], [1.0, 0.0]] for p in pts])):
        assert conjugacy_residual(V, [GOLD], E, _identity(), np.array(want), pts) == 0.0


def test_rotation_number_free_cocycle():
    rho = rotation_number(None, [GOLD], 0.0, iters=20_000, phase_samples=2)
    assert rho == pytest.approx(0.25, abs=1e-4)
    E = 2 * math.cos(2 * math.pi * 0.1)
    rho2 = rotation_number(None, [GOLD], E, iters=50_000, phase_samples=2)
    assert rho2 == pytest.approx(0.1, abs=1e-3)


def test_rotation_number_amo_dispersion():
    P = amo_potential(0.5)
    rho = rotation_number(P, [GOLD], 0.0, iters=50_000, phase_samples=4)
    curve = rotation_curve(P, [GOLD], [0.0], iters=50_000, samples=4)
    assert curve.dispersion[0] <= 1e-2
    assert rho == curve.rho[0]
    assert 0.0 < rho < 0.5


def test_uh_constant_cases():
    # the free cocycle is constant: the trace criterion, margin |E| - 2
    assert uh_test(None, [GOLD], 2.1).verdict == "hyperbolic"
    assert uh_test(None, [GOLD], 2.1).margin == pytest.approx(0.1)
    assert uh_test(None, [GOLD], -2.1).verdict == "hyperbolic"
    assert uh_test(None, [GOLD], float(np.trace(rotation_matrix(0.23)))).verdict == "not"
    assert uh_test(None, [GOLD], 3.0).verdict == "hyperbolic"


def test_uh_nonconstant_amo():
    P = amo_potential(0.5)
    rep = uh_test(P, [GOLD], 3.5, horizon=64, grid=64)
    assert rep.verdict == "hyperbolic"
    rep2 = uh_test(P, [GOLD], 0.0, horizon=64, grid=64)
    assert rep2.verdict == "not"
    # pinned bit for bit; an orbit walk that recomputes the next window
    # instead of reusing the forward block moves the margin by 3 ulps
    assert (rep.margin, rep.sigma_min, rep.sigma_max) == (
        0.3926990816987237, 2.768553963496981e+31, 4.611817290259793e+31)
    assert (rep2.margin, rep2.sigma_min, rep2.sigma_max) == (
        -1.5305972187771577, 1.104138258583397, 3.7569910807470683)


def _uh_oracle(V, alpha, E, horizon, grid):
    """uh_test as one batch of cocycle matrices and one einsum product per step."""
    period, d = 2 * math.pi, len(alpha)
    step = 2 * math.pi * np.asarray(alpha)
    if d == 1:
        pts = np.linspace(0.0, period, grid, endpoint=False)[:, None]
    else:
        per_dim = max(4, int(round(grid ** (1.0 / d))))
        axes = [np.linspace(0.0, period, per_dim, endpoint=False)] * d
        pts = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    proj_angle = lambda v: np.arctan2(v[..., 1], v[..., 0]) % math.pi

    def proj_dist(a, b):
        d = np.abs(a - b) % math.pi
        return np.minimum(d, math.pi - d)

    def unstable_field(prods):
        U, S, _ = np.linalg.svd(prods)
        return U[:, :, 0], S[:, 0]

    full = half = np.broadcast_to(np.eye(2), (pts.shape[0], 2, 2)).copy()
    for k in range(1, horizon + 1):
        full = np.einsum("mij,mjk->mik", full, _schrodinger(V, E, pts - k * step[None, :]))
        if k == max(1, horizon // 2):
            half = full
    u_full, s_full = unstable_field(full)
    u_half, _ = unstable_field(half)
    smax, smin = float(np.max(s_full)), float(np.min(s_full))
    if smax < 2.0:
        return UhReport(verdict="not", margin=smax - 2.0, sigma_min=smin, sigma_max=smax)
    stable_dirs = float(np.max(proj_dist(proj_angle(u_full), proj_angle(u_half))))
    if stable_dirs > math.pi / 6:
        return UhReport(verdict="not", margin=-stable_dirs, sigma_min=smin, sigma_max=smax)
    fwd = np.broadcast_to(np.eye(2), (pts.shape[0], 2, 2)).copy()
    for k in range(horizon):
        fwd = np.einsum("mij,mjk->mik", _schrodinger(V, E, pts + k * step[None, :]), fwd)
    ang, ang_next = proj_angle(u_full), proj_angle(unstable_field(fwd)[0])
    for phi in (math.pi / 8, math.pi / 16, math.pi / 32, math.pi / 64, math.pi / 256):
        worst, ok = -math.inf, True
        for sgn in (-1.0, 0.0, 1.0):
            edge = ang + sgn * phi
            v = np.stack([np.cos(edge), np.sin(edge)], axis=1)
            dist = proj_dist(proj_angle(np.einsum("mij,mj->mi", fwd, v)), ang_next)
            if np.max(dist) >= phi / 2:
                ok = False
                break
            worst = max(worst, float(np.max(dist)))
        if ok and smin >= 2.0 and stable_dirs < phi:
            return UhReport(verdict="hyperbolic", margin=phi - worst, sigma_min=smin,
                            sigma_max=smax)
    return UhReport(verdict="inconclusive", margin=0.0, sigma_min=smin, sigma_max=smax)


def test_uh_test_walk_matches_matrix_oracle():
    amo = amo_potential(0.5)
    d2 = Potential(labels=[(1, 0), (0, 1), (1, 1)], coefficients=[0.6, 0.3, 0.1],
                   k_exponent=0.0)
    cases = [(amo, [GOLD], E, horizon, 64) for E in (3.5, 0.0, 2.6)
             for horizon in (1, 2, 64, 101)]
    cases += [(d2, [GOLD, math.sqrt(2) - 1], E, horizon, 100) for E in (3.5, 0.3)
              for horizon in (1, 2, 70)]
    verdicts = set()
    for V, alpha, E, horizon, grid in cases:
        rep = uh_test(V, alpha, E, horizon=horizon, grid=grid)
        assert rep == _uh_oracle(V, alpha, E, horizon, grid), (E, horizon, len(alpha))
        verdicts.add((rep.verdict, len(alpha)))
    # every verdict is covered, and both dimensions decide both ways
    assert {v for v, _ in verdicts} == {"hyperbolic", "not", "inconclusive"}
    assert {("hyperbolic", 2), ("not", 2)} <= verdicts


def test_uh_test_overflowing_horizon_raises_nonconvergence():
    # sigma_max is 1.1e295 at horizon 600; at 1099 the walked products overflow
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonConvergence, match="horizon 1099"):
            uh_test(amo_potential(0.5), [GOLD], 3.5, horizon=1099, grid=64)


def test_uh_test_rejects_a_horizon_below_one():
    with pytest.raises(QpslError, match="uh_test takes horizons >= 1, not 0"):
        uh_test(amo_potential(0.5), [GOLD], 2.5, horizon=0)


def _einsum_operands(pattern, m, kinds, rng):
    ops = []
    for sub, kind in zip(pattern.split("->")[0].split(","), kinds):
        shape = (m, 2, 2) if sub.startswith("m") else (2, 2)
        parts = []
        for _ in range(2 if kind == "c" else 1):
            x = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)
            x[rng.random(shape) < 0.1] = 0.0
            x[rng.random(shape) < 0.1] = -0.0
            parts.append(x)
        ops.append(parts[0] + 1j * parts[1] if kind == "c" else parts[0])
        if kind == "c":
            ops[-1].imag[rng.random(shape) < 0.1] = -0.0
    return ops


def _product_reference(*factors):
    """F_1 ... F_n entry by entry: for each output entry (i, l), walk every
    index path (i, j, k, ..., l), inner indices in C order, multiply along it
    left to right with re = ar*br - ai*bi, im = ar*bi + ai*br, and add the
    paths to 0 in turn."""
    cplx = any(np.iscomplexobj(F) for F in factors)
    m = max((len(F) for F in factors if F.ndim == 3), default=1)
    mats = [np.broadcast_to(np.asarray(F, complex if cplx else float), (m, 2, 2))
            for F in factors]
    re_out, im_out = np.zeros((m, 2, 2)), np.zeros((m, 2, 2))
    for i, l in itertools.product((0, 1), repeat=2):
        for inner in itertools.product((0, 1), repeat=len(mats) - 1):
            path = (i,) + inner + (l,)
            re, im = mats[0].real[:, i, path[1]], mats[0].imag[:, i, path[1]]
            for f in range(1, len(mats)):
                br = mats[f].real[:, path[f], path[f + 1]]
                bi = mats[f].imag[:, path[f], path[f + 1]]
                re, im = re * br - im * bi, re * bi + im * br
            re_out[:, i, l] += re
            im_out[:, i, l] += im
    return re_out + 1j * im_out if cplx else re_out


def _matmul(*factors):
    return functools.reduce(np.matmul, factors)


def test_matmul_matches_einsum_and_the_entry_reference():
    # ``@`` of full stacks agrees with einsum (numpy's own summation order)
    # and with the entry reference to rounding
    rng = np.random.default_rng(8)
    patterns = ["mij,mjk->mik", "mij,mjk,mkl->mil", "ij,mjk,kl->mil", "ij,mjk->mik",
                "mij,jk,mkl,mlp->mip"]
    for pattern in patterns:
        n = len(pattern.split(","))
        mixed = ["c" if i % 2 else "r" for i in range(n)]
        for kinds in (["r"] * n, ["c"] * n, mixed, mixed[::-1]):
            for m in (0, 1, 192, 2048):
                ops = _einsum_operands(pattern, m, kinds, rng)
                got = _matmul(*ops)
                want = _product_reference(*ops)
                assert got.dtype == want.dtype and got.shape == want.shape
                scale = np.einsum(pattern, *[np.abs(F) for F in ops])
                assert np.all(np.abs(got - np.einsum(pattern, *ops)) <= 1e-14 * scale)
                assert np.all(np.abs(got - want) <= 1e-14 * scale)


def _stack_exp_reference(C):
    """su11_exp as a stack kernel computing both rows from the closed form,
    row 1 as (conj(b) sinhc, cosh lam - i a sinhc)."""
    a, b = C[:, 0, 0].imag, C[:, 0, 1]
    disc = (np.abs(b) ** 2 - a * a).astype(complex)
    lam = np.sqrt(disc)
    small = np.abs(lam) < 1e-8
    lam_safe = np.where(small, 1.0, lam)
    ch = np.where(small, 1.0 + disc / 2 + disc * disc / 24, np.cosh(lam_safe))
    sc = np.where(small, 1.0 + disc / 6 + disc * disc / 120, np.sinh(lam_safe) / lam_safe)
    out = np.empty_like(C)
    out[:, 0, 0], out[:, 1, 1] = ch + 1j * a * sc, ch - 1j * a * sc
    out[:, 0, 1], out[:, 1, 0] = b * sc, np.conj(b) * sc
    return out


def _random_su11_algebra(rng, m):
    """su(1,1) elements reaching the small-|lam|, elliptic and hyperbolic
    branches of the exp and of the log."""
    scale = rng.choice([1e-10, 1e-6, 1e-3, 0.1, 1.0], size=m)
    a = rng.normal(size=m) * scale
    b = (rng.normal(size=m) + 1j * rng.normal(size=m)) * scale
    b[:8] = 0.0  # pure rotations
    a[8:16] = 0.0  # pure boosts
    return su11_element(a, b)


def test_pair_exp_and_log_equal_stack_kernels():
    rng = np.random.default_rng(11)
    C = _random_su11_algebra(rng, 2000)
    disc = np.abs(C[:, 0, 1]) ** 2 - C[:, 0, 0].imag ** 2
    assert (np.sqrt(np.abs(disc)) < 1e-8).any() and (disc < -1e-4).any() and (disc > 1e-4).any()
    E = _stack_exp_reference(C)
    A, B = su11_exp_pair(C[:, 0, 0].imag, C[:, 0, 1])
    assert np.array_equal(A, E[:, 0, 0]) and np.array_equal(B, E[:, 0, 1])
    assert np.array_equal(su11_exp(C), E)
    ok = (E[:, 0, 0].real >= 1.0) | (np.arccos(np.clip(E[:, 0, 0].real, -1, 1)) < 3.0)
    ch = E[ok, 0, 0].real
    assert (np.abs(ch - 1) < 1e-12).any() and (ch < 1 - 1e-6).any() and (ch > 1 + 1e-6).any()
    # the log inverts the exp on each branch
    a, b = _su11_log_pair(E[ok, 0, 0], E[ok, 0, 1])
    small = np.linalg.norm(C[ok], axis=(1, 2)) < 2.0
    assert np.max(np.abs(su11_element(a, b)[small] - C[ok][small])) < 1e-9


def _assert_within_ulps(got, want, scale, ulps=4):
    assert np.all(np.abs(got - want) <= ulps * np.finfo(float).eps * scale)


def test_pair_products_equal_row_zero_of_mat_product():
    # row 0 of ``@`` of the full stacks, within 4 ulp of the product of the
    # entries' moduli (2.96 measured)
    rng = np.random.default_rng(12)
    m = 2048
    E1, E2, E3 = (_stack_exp_reference(_random_su11_algebra(rng, m)) for _ in range(3))
    pair = lambda E: (E[:, 0, 0], E[:, 0, 1])
    for stacks in ((E1, E2), (E1, E2, E3), (E3, E1, E2, E1)):
        A, B = pair_product(*[pair(E) for E in stacks])
        P, S = _matmul(*stacks), _matmul(*[np.abs(E) for E in stacks])
        _assert_within_ulps(A, P[:, 0, 0], S[:, 0, 0])
        _assert_within_ulps(B, P[:, 0, 1], S[:, 0, 1])
    # the Newton sweep's diagonal conjugation Ad^-1 E Ad is (A, B e^{-2 i theta})
    theta = 2 * math.pi * 0.2037
    Ad = np.diag([np.exp(1j * theta), np.exp(-1j * theta)])
    P = np.linalg.inv(Ad) @ E1 @ Ad
    _assert_within_ulps(E1[:, 0, 0], P[:, 0, 0], np.abs(E1[:, 0, 0]))
    _assert_within_ulps(E1[:, 0, 1] * np.exp(-2j * theta), P[:, 0, 1], np.abs(E1[:, 0, 1]))
    # and its product inner . e^g . adj e^Y on pairs
    A, B = pair_product(pair(P), pair(E2), (np.conj(E3[:, 0, 0]), -E3[:, 0, 1]))
    adj = np.stack([np.stack([E3[:, 1, 1], -E3[:, 0, 1]], -1),
                    np.stack([-E3[:, 1, 0], E3[:, 0, 0]], -1)], -2)
    S = np.abs(P) @ np.abs(E2) @ np.abs(adj)
    P = P @ E2 @ adj
    _assert_within_ulps(A, P[:, 0, 0], S[:, 0, 0])
    _assert_within_ulps(B, P[:, 0, 1], S[:, 0, 1])


def test_pair_product_stays_in_su11():
    # products of two to four random SU(1,1) pairs, |B| <= 1, keep
    # |A|^2 - |B|^2 = 1 (5.7e-14 measured, |A| up to 11)
    rng = np.random.default_rng(13)

    def random_pairs(m):
        b = np.sqrt(rng.uniform(size=m)) * np.exp(2j * math.pi * rng.uniform(size=m))
        return np.sqrt(1 + np.abs(b) ** 2) * np.exp(2j * math.pi * rng.uniform(size=m)), b

    for n in (2, 3, 4):
        A, B = pair_product(*[random_pairs(4096) for _ in range(n)])
        assert np.max(np.abs(np.abs(A) ** 2 - np.abs(B) ** 2 - 1.0)) <= 1e-13


def test_conjugate_identity_map():
    # B = I: the residual against S_E is 0, and against -S_E too (the PSL sign)
    P = amo_potential(0.4)
    pts = np.random.default_rng(0).uniform(0, 2 * math.pi, size=(16, 1))
    S = _schrodinger(P, 0.7, pts)
    for want in (S, -S):
        assert conjugacy_residual(P, [GOLD], 0.7, _identity(), want, pts) == 0.0
    assert conjugacy_residual(P, [GOLD], 0.7, _identity(), 2 * S, pts) > 0.1


def test_conjugate_matches_linalg_product():
    # B(theta + 2 pi alpha)^{-1} S_E(theta) B(theta), for a shear on the torus
    # and a half-winding rotation on the doubled torus
    P = amo_potential(0.3)
    shear = _identity()
    shear[(1,)] = shear[(-1,)] = np.array([[0.0, 0.2], [0.0, 0.0]])
    half = FourierSeries(1, halved=True, kind="matrix")  # rotation by theta / 2
    half[(1,)] = np.array([[1, 1j], [-1j, 1]]) / 2
    half[(-1,)] = np.array([[1, -1j], [1j, 1]]) / 2
    pts = np.random.default_rng(4).uniform(0, 4 * math.pi, size=(64, 1))
    assert np.allclose(shear.sample(pts)[:, 0, 1], 0.4 * np.cos(pts[:, 0]), atol=1e-15)
    assert np.allclose(half.sample(pts)[:, 1, 0], np.sin(pts[:, 0] / 2), atol=1e-15)
    S = _schrodinger(P, 0.2, pts)
    for B in (shear, half):
        want = np.linalg.inv(B.sample(pts + 2 * math.pi * GOLD)) @ S @ B.sample(pts)
        assert conjugacy_residual(P, [GOLD], 0.2, B, want, pts) < 1e-12
        assert conjugacy_residual(P, [GOLD], 0.2, B, S, pts) > 0.1


def test_conjugate_singular_rejected():
    pts = np.zeros((4, 1))
    with pytest.raises(SingularConjugator):
        conjugacy_residual(None, [GOLD], 0.0, FourierSeries(1, kind="matrix"), np.eye(2), pts)


def test_rotation_monotone_in_energy_amo():
    from qpsl.spectrum import rotation_curve
    P = amo_potential(0.5)
    E = np.linspace(-2.8, 2.8, 29)
    curve = rotation_curve(P, [GOLD], E, iters=30_000, samples=2)
    assert np.all(np.diff(curve.rho) <= 1e-4)


def _tridiagonal(diag):
    n = len(diag)
    return np.diag(diag) + np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)


def _sign_changes(diag, E, u_prev=0.3, u_cur=1.0):
    """Reference oscillation count: the plain solution recursion, where a
    step that lands exactly on zero counts as one sign change."""
    count = 0
    for v in diag:
        u_next = (E - v) * u_cur - u_prev
        count += bool(u_cur * u_next < 0 or u_next == 0)
        u_prev, u_cur = u_cur, u_next
    return count


def _pivot_zeros(diag, E, r):
    """Exact zero pivots of r_k = (E - v_k) - 1/r_{k-1}, in Python floats."""
    zeros = 0
    for v in diag:
        r = (E - v) - 1.0 / r
        if r == 0:
            zeros, r = zeros + 1, -1e-300
    return zeros


def _eigen_counts(diag, energies):
    """Eigenvalues of tridiag(1, diag, 1) below each E; one equal to E up to
    rounding counts as not below, and none may lie near E otherwise."""
    evals = np.linalg.eigvalsh(_tridiagonal(diag))
    dist = np.abs(evals[None, :] - np.asarray(energies)[:, None])
    assert not np.any((dist > 1e-12) & (dist < 1e-6))
    return np.sum(evals[None, :] < np.asarray(energies)[:, None] - 1e-9, axis=1)


def test_pivot_count_exact_zero_pivots():
    # prefixes ending on an exact zero pivot at E = 0 pin the rule down: a
    # zero followed by another site contributes one negative either way
    rng = np.random.default_rng(11)
    energies = [-1.3, 0.0, 0.9]
    # at E = 0 the pivots from r = inf are 0.5, 0, ..., 0.5, 0
    ids_diag = np.concatenate([[-0.5, -2.0, 0.4, -0.5, -2.0], rng.uniform(-1.5, 1.5, 40)])
    for sites in (2, 5, len(ids_diag)):
        diag = ids_diag[:sites]
        neg = pivot_negatives(energies, [diag[:, None]], math.inf)[:, 0]
        assert np.array_equal(sites - neg, _eigen_counts(diag, energies))
    # at E = 0 the solution from (0.3, 1) lands exactly on 0 at sites 0 and 3
    rot_diag = np.concatenate([[-0.3, 0.7, -2.0, -0.5], rng.uniform(-1.5, 1.5, 40)])
    for sites in (1, 4, len(rot_diag)):
        diag = rot_diag[:sites]
        neg = pivot_negatives(energies, [diag[:, None]], 1 / 0.3)[:, 0]
        assert [int(n) for n in neg] == [_sign_changes(diag, E) for E in energies]


@pytest.mark.parametrize("n_energies, n_phases, r_init", [
    (1, 3, math.inf), (1, 3, 1 / 0.3), (7, 1, math.inf), (7, 1, 1 / 0.3),
    # the rotation start, which _refine_edges uses; the IDS start runs the
    # same kernel and would double the time of the widest case
    (261, 2, 1 / 0.3)])
def test_pivot_count_columns_independent(n_energies, n_phases, r_init):
    # the batched count equals one call per (energy, phase) column bit for
    # bit; the sites cross an orbit block, which ends a pivot chunk, and the
    # 261 x 2 batch also breaks each block into many chunks
    sites = _ORBIT_BLOCK + 500
    rng = np.random.default_rng(n_energies)
    energies = np.sort(rng.uniform(-2.6, 2.6, n_energies))
    thetas = rng.uniform(0, 2 * math.pi, size=(n_phases, 1))
    blocks = list(orbit_potential(amo_potential(0.5), [GOLD], thetas, sites))
    assert len(blocks) == 2
    neg = pivot_negatives(energies, blocks, r_init)
    assert neg.shape == (n_energies, n_phases)
    for p in range(n_phases):
        column = [b[:, p:p + 1] for b in blocks]
        for e, E in enumerate(energies):
            assert neg[e, p] == pivot_negatives([E], column, r_init)[0, 0]


def test_pivot_count_one_zero_column_in_wide_batch():
    # one (energy, phase) column of 81 x 2 meets an exact zero pivot in the
    # first chunk, which is then redone under the zero rule for all columns
    rng = np.random.default_rng(12)
    energies = np.sort(np.concatenate([rng.uniform(-2.5, 2.5, 80), [0.0]]))
    sites = 3 * (_PIVOT_BLOCK // (energies.size * 2))
    for r_init, planted in ((math.inf, [-0.5, -2.0, 0.4, -0.5, -2.0]),
                            (1 / 0.3, [-0.3, 0.7, -2.0, -0.5])):
        diag = np.empty((sites, 2))
        diag[:, 0] = np.concatenate([planted, rng.uniform(-1.5, 1.5, sites - len(planted))])
        diag[:, 1] = rng.uniform(-1.5, 1.5, sites)
        hits = [(e, p) for p in range(2) for e, E in enumerate(energies)
                if _pivot_zeros(diag[:, p], E, r_init)]
        assert hits == [(int(np.searchsorted(energies, 0.0)), 0)]
        neg = pivot_negatives(energies, [diag], r_init)
        for p in range(2):
            if r_init == math.inf:
                assert np.array_equal(sites - neg[:, p], _eigen_counts(diag[:, p], energies))
            else:
                assert [int(n) for n in neg[:, p]] == [_sign_changes(diag[:, p], E)
                                                      for E in energies]


def test_rotation_number_matches_rotation_curve_bitwise():
    P = amo_potential(0.5)
    for samples in (1, 3):
        rho = rotation_number(P, [GOLD], 0.4, iters=20_000, phase_samples=samples, seed=6)
        curve = rotation_curve(P, [GOLD], [0.4], iters=20_000, samples=samples, seed=6)
        assert rho == curve.rho[0]


def test_rotation_number_rigid():
    # only Schrodinger cocycles have a rotation number here, as in uh_test:
    # a rigid rotation in place of V is refused
    with pytest.raises(QpslError, match="Potential"):
        rotation_number(rotation_matrix(0.3), [GOLD], 0.0, iters=5000, phase_samples=2)


def test_schrodinger_cocycle_rejects_non_potential():
    # V is None or a Potential, in every function of (V, alpha, E)
    series = FourierSeries(1, {(1,): 0.5, (-1,): 0.5})
    pts = np.zeros((4, 1))
    for V in (series, lambda th: np.cos(th[:, 0]), 0.0):
        with pytest.raises(QpslError, match="Potential"):
            conjugacy_residual(V, [GOLD], 0.3, _identity(), np.eye(2), pts)
        with pytest.raises(QpslError, match="Potential"):
            rotation_number(V, [GOLD], 0.3, iters=100, phase_samples=1)
        with pytest.raises(QpslError, match="Potential"):
            uh_test(V, [GOLD], 0.3, horizon=4, grid=4)
