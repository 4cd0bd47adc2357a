"""Gap-edge probing: perturbation matrix, averaged matrix, discriminant, and
the averaging-step certificate of the probes."""

import dataclasses
import math

import mpmath
import numpy as np
import pytest

from qpsl import moser_poschel
from qpsl.cocycle import UhReport, rotation_number, uh_test
from qpsl.diophantine import frequency_vector, golden_mean
from qpsl.errors import QpslError
from qpsl.fourier import FourierSeries, Potential, build_potential
from qpsl.kam import KamParams, run_reducibility
from qpsl.label_set import build_schedule, construct_label_set
from qpsl.moser_poschel import (
    EdgeData,
    averaged_matrix,
    averaging_step,
    bracket_gap,
    certify_probe,
    d_tau_constant,
    discriminant,
    edge_data_from_reduction,
    perturbation_matrix,
    poly_bounds_check,
    probe_gap_edge,
    uh_probe,
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
    # B = I reduces nothing here, so B's residual leaves the certificate
    # inconclusive and uh_test decides alone: no rotation-number lock turns
    # an inconclusive test into "not", whatever the labels of V
    V = Potential(labels=[label], coefficients=[1e-3], k_exponent=0.0)
    edge = _edge_from_series(_identity_series(len(alpha)), 0.01, energy=0.5, alpha=alpha)
    calls = []

    def inconclusive(*args, **kw):
        calls.append(args)
        return UhReport(verdict="inconclusive", margin=0.0)

    monkeypatch.setattr(moser_poschel, "uh_test", inconclusive)
    p = probe_gap_edge(edge, V, 0.01)
    assert (p.verdict, p.decided_by, len(calls)) == ("inconclusive", "uh_test", 1)
    assert not hasattr(moser_poschel, "rotation_number")


def test_inconclusive_certificate_falls_back_on_uh_test_once(monkeypatch):
    res = run_reducibility(None, [GOLD], {"energy": 2.0},
                           params=KamParams(schedule=None, max_degree=64))
    edge = edge_data_from_reduction(res, [GOLD])
    step = averaging_step(edge)
    calls = []

    def counted(*args, **kw):
        calls.append(args)
        return uh_test(*args, **kw)

    monkeypatch.setattr(moser_poschel, "uh_test", counted)
    p = probe_gap_edge(edge, None, 0.01, step)
    assert (p.verdict, p.decided_by, calls) == ("hyperbolic", "certificate", [])
    # a remainder planted too large for the margin: uh_test decides, once
    planted = probe_gap_edge(edge, None, 0.01, dataclasses.replace(step, q2_mass=1e12))
    assert (planted.verdict, planted.decided_by, len(calls)) == ("hyperbolic", "uh_test", 1)
    assert planted.margin < 1.0 < p.margin
    # no averaging step when |s| sum |Y_n| >= 1: H = I + s Y may be singular
    assert certify_probe(dataclasses.replace(step, y_mass=1e3), edge.zeta, 0.01, 0.0) == (
        "inconclusive", 0.0, math.inf)


@pytest.fixture(scope="module")
def criterion11_edges():
    """The potential, and per criterion-11 edge its EdgeData and label n~."""
    freq = frequency_vector(golden_mean(80), gamma=0.5, tau=1.5)
    sched = build_schedule(10, 0.9, depth=6)
    V = build_potential(construct_label_set(freq, sched, j1=0, spacing=2, count=1), k=2.0)
    params = KamParams(tau=1.5, k_exponent=2.0, schedule=sched, max_degree=384,
                       grid_size=2048, conj_residual_tol=1e-9, seed=1)
    af = freq.floats()
    results = {edge: run_reducibility(V, af, {"label_index": 0, "edge": edge}, params=params)
               for edge in ("upper", "lower")}
    return V, {edge: (edge_data_from_reduction(res, af), res.label)
               for edge, res in results.items()}


def test_averaging_step_bounds_the_sampled_remainder(criterion11_edges):
    _, edges = criterion11_edges
    edge, _ = edges["upper"]
    step = averaging_step(edge)
    th = np.random.default_rng(5).uniform(0, 4 * math.pi, size=(512, 1))
    P, Y = step.P.sample(th), step.Y.sample(th)
    Y_next = step.Y.sample(th + 2 * math.pi * edge.alpha)
    # Y(. + alpha) - Y = -(P - [P])
    assert np.max(np.abs(Y_next - Y + P - step.mean)) < 1e-12
    C = np.array([[1.0, edge.zeta], [0.0, 1.0]])
    for delta in bracket_gap(edge, None, probe=False)["bracket"]:
        R = (np.linalg.inv(np.eye(2) + delta * Y_next) @ (C - delta * P)
             @ (np.eye(2) + delta * Y) - (C - delta * step.mean))
        sampled = np.max(np.linalg.norm(R, 2, axis=(1, 2)))
        bound = ((delta * step.q1_mass + delta ** 2 * step.q2_mass)
                 / (1.0 - delta * step.y_mass))
        assert sampled <= bound < 5.0 * sampled


@pytest.mark.parametrize("name", ["upper", "lower"])
def test_certificate_verdicts_match_uh_test_and_the_gap_lock(criterion11_edges, name):
    V, edges = criterion11_edges
    edge, label = edges[name]
    step = averaging_step(edge)
    # gap labelling: inside the gap of label n~, 2 rho = <n~, alpha> mod 1
    # (up to sign); 20,000 sites count 2 rho to about 1/20,000
    lock = float(np.dot(label, edge.alpha)) % 1.0
    verdicts = {}
    # the probe scales |zeta|^p from delta2 (p = 11/10) to delta1 (p = 9/10)
    for p in (1.1, 1.075, 1.05, 1.025, 1.0, 0.95, 0.9):
        s = math.copysign(abs(edge.zeta) ** p, edge.zeta)
        cert = probe_gap_edge(edge, V, abs(s), step)
        verdicts[p] = (cert.verdict, cert.decided_by)
        if cert.decided_by != "certificate":
            continue
        two_rho = 2 * rotation_number(V, edge.alpha, edge.energy - s, iters=20_000,
                                      phase_samples=2)
        off_lock = min(abs(two_rho - lock), abs(two_rho - (1.0 - lock)))
        # each verdict is compared with a test of the same property: a
        # "hyperbolic" one with uh_test's, a "not" (outside this gap, not
        # "not uniformly hyperbolic") with the rotation number off the lock
        if cert.verdict == "hyperbolic":
            assert uh_probe(edge, V, abs(s)) in ("hyperbolic", "inconclusive"), p
            assert off_lock < 1e-4, p
        else:
            assert off_lock > 5e-4, p
    assert verdicts[1.1] == ("hyperbolic", "certificate")
    assert verdicts[0.9] == ("not", "certificate")
    assert sum(by == "certificate" for _, by in verdicts.values()) >= 5
    record = bracket_gap(edge, V)
    assert (record["delta2"]["verdict"], record["delta1"]["verdict"]) == ("hyperbolic", "not")
    assert record["delta2"]["margin"] > 1.0 and record["delta1"]["margin"] > 1.0


def test_probe_d_is_the_probes_own_discriminant(criterion11_edges):
    V, edges = criterion11_edges
    edge, _ = edges["lower"]
    delta2 = bracket_gap(edge, None, probe=False)["bracket"][0]
    p = probe_gap_edge(edge, V, delta2)
    # a left edge (zeta < 0) is probed at E + delta2: the probe's own d is
    # d(-delta2), negative inside the gap, where d(delta2) is positive
    assert edge.zeta < 0 and p.verdict == "hyperbolic"
    assert p.d_delta == discriminant(edge, -delta2) < 0 < discriminant(edge, delta2)
