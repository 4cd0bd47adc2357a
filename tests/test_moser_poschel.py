"""Gap-edge probing: perturbation matrix, averaged matrix, discriminant."""

import math

import mpmath
import numpy as np
import pytest

from qpsl import moser_poschel
from qpsl.cocycle import UhReport, uh_test
from qpsl.errors import QpslError
from qpsl.fourier import FourierSeries, Potential
from qpsl.kam import KamParams, run_reducibility
from qpsl.moser_poschel import (
    EdgeData,
    averaged_matrix,
    bracket_gap,
    d_tau_constant,
    discriminant,
    edge_data_from_reduction,
    perturbation_matrix,
    poly_bounds_check,
    probe_gap_edge,
)

GOLD = 0.6180339887498949


def _identity_series(d=1):
    B = FourierSeries(d, halved=True, kind="sl2r")
    B[(0,) * d] = np.eye(2, dtype=complex)
    return B


def _random_real_sl2_series(rng, degree=4):
    # real-valued entries; only the first row enters the probe quantities
    B = FourierSeries(1, halved=False, kind="matrix")
    B[(0,)] = np.eye(2, dtype=complex)
    for _ in range(6):
        n = int(rng.integers(1, degree + 1))
        m = 0.4 * (rng.normal(size=(2, 2)) + 0j)
        B[(n,)] = B[(n,)] + m
        B[(-n,)] = B[(-n,)] + m.conj()
    return B


def _edge_from_series(B, zeta, energy=0.0, alpha=(GOLD,)):
    from qpsl.moser_poschel import _entry, _mean_product
    B11 = _entry(B, 0, 0)
    B12 = _entry(B, 0, 1)
    A11 = _mean_product(B11, B11).real
    A12 = _mean_product(B11, B12).real
    A22 = _mean_product(B12, B12).real
    return EdgeData(B=B, zeta=zeta, energy=energy, alpha=np.array(alpha),
                    A11=A11, A12=A12, A22=A22, k0=1, b_norm_k0=B.ck_norm_estimate(1))


def _discriminant_crosscheck(edge: EdgeData, delta):
    """|d(delta) - det(c0 - delta c1) - delta^2 zeta^2 A11^2 / 4|, which is
    zero in exact arithmetic."""
    c0 = np.array([[0.0, edge.zeta], [0.0, 0.0]])
    det = np.linalg.det(c0 - delta * averaged_matrix(edge))
    d_val = discriminant(edge, delta)
    return abs(d_val - det - 0.25 * delta ** 2 * edge.zeta ** 2 * edge.A11 ** 2)


def test_perturbation_matrix_identity_B():
    P = perturbation_matrix(_identity_series(), zeta=0.25)
    val = P.eval([0.7])
    assert np.allclose(val, [[-0.25, 0.0], [-1.0, 0.0]], atol=1e-14)


def test_perturbation_trace_pointwise():
    rng = np.random.default_rng(0)
    B = _random_real_sl2_series(rng)
    zeta = 0.1
    P = perturbation_matrix(B, zeta)
    from qpsl.moser_poschel import _entry
    B11 = _entry(B, 0, 0)
    for th in rng.uniform(0, 2 * math.pi, 12):
        tr = np.trace(P.eval([th]))
        assert tr == pytest.approx(-zeta * B11.eval([th]) ** 2, abs=1e-12)


def test_averaged_matrix_identity_B():
    c1 = averaged_matrix(_edge_from_series(_identity_series(), 0.3))
    assert np.allclose(c1, [[-0.15, 0.0], [-1.0, 0.15]])


def test_averaged_matrix_traceless_and_mean_consistency():
    rng = np.random.default_rng(1)
    for _ in range(20):
        B = _random_real_sl2_series(rng)
        zeta = float(rng.uniform(0.01, 0.5))
        edge = _edge_from_series(B, zeta)
        c1 = averaged_matrix(edge)
        assert abs(np.trace(c1)) < 1e-14
        # c1 is the traceless part of the mean of P: mean(P) = c1 - (zeta/2) A11 I
        meanP = perturbation_matrix(B, zeta).mean()
        assert np.allclose(meanP, c1 - 0.5 * zeta * edge.A11 * np.eye(2), atol=1e-12)


def test_discriminant_trivial_cases():
    edge = _edge_from_series(_identity_series(), 0.3)
    assert discriminant(edge, delta=0.0) == 0.0
    # B = I: A11 = 1, A12 = A22 = 0 so d(delta) = -delta zeta
    assert discriminant(edge, delta=0.01) == pytest.approx(-0.003)


def test_discriminant_negative_for_small_positive_delta():
    rng = np.random.default_rng(2)
    for _ in range(20):
        B = _random_real_sl2_series(rng)
        zeta = float(rng.uniform(0.01, 0.3))
        edge = _edge_from_series(B, zeta)
        assert edge.A11 > 0
        small = 1e-8
        assert discriminant(edge, delta=small) < 0


def test_discriminant_crosscheck_identity():
    rng = np.random.default_rng(3)
    for _ in range(100):
        B = _random_real_sl2_series(rng)
        zeta = float(rng.uniform(0.001, 0.5))
        edge = _edge_from_series(B, zeta)
        delta = float(rng.uniform(0.0, 1.0))
        assert _discriminant_crosscheck(edge, delta) < 1e-12 * max(1.0, edge.A11 ** 2)


def test_poly_bounds_identity_degenerate():
    edge = _edge_from_series(_identity_series(), 1e-4)
    rep = poly_bounds_check(edge, kappa=0.2)
    assert rep["degenerate"]
    assert not rep["gram_ok"]


def test_poly_bounds_random_first_bound():
    rng = np.random.default_rng(4)
    for _ in range(20):
        B = _random_real_sl2_series(rng)
        edge = _edge_from_series(B, 1e-3)
        assert edge.A11 >= (2 * edge.b_norm_k0) ** (-2) - 1e-12


def test_constant_probe_matches_trace_criterion():
    # B = I, zeta = 0.01, delta = zeta^{11/10}: C - delta P has trace 2 + delta zeta
    zeta = 0.01
    delta = zeta ** 1.1
    C = np.array([[1.0, zeta], [0.0, 1.0]])
    P = np.array([[-zeta, 0.0], [-1.0, 0.0]])
    M = C - delta * P
    assert np.allclose(M, [[1 + delta * zeta, zeta], [delta, 1.0]])
    assert np.trace(M) > 2
    # the free cocycle at E = tr M is constant with the trace of M
    rep = uh_test(None, [GOLD], float(np.trace(M)))
    assert rep.verdict == "hyperbolic"
    assert rep.margin == pytest.approx(delta * zeta, abs=1e-15)
    # delta = 0: parabolic C is not uniformly hyperbolic
    rep0 = uh_test(None, [GOLD], float(np.trace(C)))
    assert rep0.verdict == "not"


def test_d_tau_constant_finite():
    val = d_tau_constant(k0=10, k_hat=2, tau=1.5, d=1)
    assert 0 < val < math.inf
    assert d_tau_constant(k0=3, k_hat=2, tau=1.5, d=1) == math.inf
    # s = k0 - k_hat - 3 tau - d + 1 = 2.5 (edge_reduction's arguments) and 3.5
    for k0, s in ((1, 2.5), (2, 3.5)):
        ref = 8 * mpmath.nsum(lambda m: (2 * mpmath.pi * m) ** (-s), [1, mpmath.inf],
                              method="euler-maclaurin")
        assert d_tau_constant(k0=k0, k_hat=-6, tau=1.5, d=1) == pytest.approx(
            float(ref), rel=1e-13, abs=0)


def test_bracket_monotone_and_degenerate():
    edge = _edge_from_series(_identity_series(), 1e-4)
    lower, upper = bracket_gap(edge, None, probe=False)["bracket"]
    assert lower == pytest.approx((1e-4) ** 1.1)
    assert upper == pytest.approx((1e-4) ** 0.9)
    assert lower < upper
    edge1 = _edge_from_series(_identity_series(), 1.0)
    out1 = bracket_gap(edge1, None, probe=False)
    assert out1["degenerate"]
    with pytest.raises(QpslError):
        bracket_gap(_edge_from_series(_identity_series(), 0.0), None, probe=False)


def test_probe_identity_on_free_edge():
    # reduce the free cocycle at E = 2 and verify the linear-shift identity
    res = run_reducibility(None, [GOLD], {"energy": 2.0},
                           params=KamParams(schedule=None, max_degree=64))
    edge = edge_data_from_reduction(res, [GOLD])
    assert edge.checks["cauchy_schwarz"]
    assert edge.checks["a11_lower_bound"]
    p = probe_gap_edge(edge, None, delta=0.01)
    assert p.conjugation_residual < 1e-9
    # zeta < 0 at E = 2 (left edge of the upper gap): the probe goes upward,
    # into the gap (2, infinity), where the cocycle is uniformly hyperbolic
    assert p.verdict == "hyperbolic"


@pytest.mark.parametrize("label, alpha", [((43,), (GOLD,)), ((3, -2), (GOLD, math.sqrt(2) - 1))],
                         ids=["label-43", "off-axis-d2"])
def test_inconclusive_probe_locked_to_a_label_of_v_stays_inconclusive(monkeypatch, label,
                                                                       alpha):
    # the verdict is uh_test's alone: no rotation-number lock turns an
    # inconclusive test into "not", whatever the labels of V
    V = Potential(labels=[label], coefficients=[1e-3], k_exponent=0.0)
    edge = _edge_from_series(_identity_series(len(alpha)), 0.01, energy=0.5, alpha=alpha)
    monkeypatch.setattr(moser_poschel, "uh_test",
                        lambda *args, **kw: UhReport(verdict="inconclusive", margin=0.0))
    assert probe_gap_edge(edge, V, 0.01).verdict == "inconclusive"
    assert not hasattr(moser_poschel, "rotation_number")
