"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured quantities (run with -s to see them).

The asymptotic regime (smoothness exponents of order hundreds of tau) is not
reachable numerically; these checks are property-based at relaxed parameters
plus small-instance oracle equivalence, and the asymptotic windows (zeta,
gap exponent) are reported, not asserted.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import brentq

from qpsl import kam
from qpsl.cocycle import potential_values, to_su11, uh_test
from qpsl.diophantine import (
    cf_expand,
    dist_to_integers,
    frequency_vector,
    golden_mean,
    resonant_denominator,
    sqrt2_minus_1,
)
from qpsl.fourier import FourierSeries, amo_potential, build_potential
from qpsl.kam import (
    KamParams,
    KamState,
    ModeRule,
    Su11Series,
    divisor_w,
    kam_step,
    remove_nonresonant,
    run_reducibility,
    solve_homological,
)
from qpsl.label_set import LabelSet, build_schedule, construct_label_set, verify_label_set
from qpsl.moser_poschel import (
    bracket_gap,
    discriminant,
    edge_data_from_reduction,
)
from qpsl.spectrum import detect_gaps, gap_bounds_check, ids_curve, rotation_curve
from test_kam import _removal_residual, _scaled, _window_rule, _window_schedule

GOLD = 0.6180339887498949
GOLDEN_80 = golden_mean(80)
GOLDEN_900 = golden_mean(900)


def _report(name, runtime, detail):
    print(f"PASS {name} [{runtime:.2f}s] {detail}")


# ---------------------------------------------------------------------------


def test_criterion_01_continued_fractions():
    t0 = time.time()
    cf = cf_expand(GOLDEN_80, depth=11)
    assert cf.q[:10] == (1, 1, 2, 3, 5, 8, 13, 21, 34, 55)
    for k in range(10):
        d = cf.approx_error(k)
        assert Fraction(1, cf.q[k] + cf.q[k + 1]) < d <= Fraction(1, cf.q[k + 1])
    rt = time.time() - t0
    assert rt < 1.0
    _report("criterion-1 continued-fractions", rt,
            "q(1..10) exact, two-sided approximation inequality at every level")


def test_criterion_02_resonant_denominator_search():
    t0 = time.time()
    cf = cf_expand(golden_mean(60), depth=40)
    res = resonant_denominator(cf, 100)
    assert res.q == 178 and res.q_nj == 89
    assert res.dist < 3 / 89
    # exhaustive oracle over the window
    qual = [m for m in range(105, 206)
            if dist_to_integers(m * cf.alpha) < Fraction(3, 89)]
    assert res.q in qual
    rng = np.random.default_rng(11)
    for _ in range(50):
        ell = int(rng.integers(20, 100_001))
        r = resonant_denominator(cf, ell)
        assert 21 * ell / 20 <= r.q <= 41 * ell / 20
        assert r.q % r.q_nj == 0
        assert r.dist < 3 / r.q_nj
    rt = time.time() - t0
    assert rt < 5.0
    _report("criterion-2 resonant-denominator", rt,
            "ell=100 gives q=178 (oracle-verified); 50 random ell in [20,1e5] pass both conditions")


def test_criterion_03_label_set_verification():
    t0 = time.time()
    targets = [i / 20 for i in range(20)]
    for d in (1, 2):
        if d == 1:
            freq = frequency_vector(GOLDEN_900, gamma=0.2, tau=2.0)
        else:
            freq = frequency_vector((GOLDEN_900, sqrt2_minus_1(900)), gamma=0.1, tau=2.0)
        sched = build_schedule(100, 0.9, depth=10)
        ks = construct_label_set(freq, sched, j1=0, spacing=2, count=5)
        assert len(ks.entries) >= 5
        rep = verify_label_set(ks, sched, density_targets=targets, density_tol=1.0)
        assert rep.sparsity_ok and rep.annulus_ok and rep.window_ok and rep.spacing_ok
        prev = [math.inf] * len(targets)
        for count in (1, 2, 3, 4, 5):
            sub = LabelSet(d=ks.d, entries=ks.entries[:count], frequency=freq,
                           schedule=sched)
            r = verify_label_set(sub, sched, density_targets=targets, density_tol=1.0)
            best = [b for (_, b, _) in r.density]
            assert all(b <= p + 1e-15 for b, p in zip(best, prev))
            prev = best
    rt = time.time() - t0
    assert rt < 10.0
    _report("criterion-3 label-set", rt,
            "d=1 and d=2 sets of 5 entries pass sparsity/annulus/floor; density min monotone in count")


def test_criterion_04_rotation_number_free():
    t0 = time.time()
    E = np.linspace(-2, 2, 23)[1:-1]
    curve = rotation_curve(None, [GOLD], E, iters=100_000, samples=2)
    expect = np.arccos(E / 2) / (2 * math.pi)
    err = float(np.max(np.abs(curve.rho - expect)))
    assert err < 1e-3
    rt = time.time() - t0
    assert rt < 30.0
    _report("criterion-4 rotation-number", rt,
            f"21 energies, max |rho - arccos(E/2)/2pi| = {err:.2e} < 1e-3")


def test_criterion_05_ids_rotation_identity():
    t0 = time.time()
    P = amo_potential(0.5)
    E = np.linspace(-3.3, 3.3, 101)
    rc = rotation_curve(P, [GOLD], E, iters=400_000, samples=2, seed=2)
    ic = ids_curve(P, [GOLD], E, N=2000, phases=8, seed=2)
    err = float(np.max(np.abs(ic.values - (1.0 - 2.0 * rc.rho))))
    rt = time.time() - t0
    assert err < 5e-3
    assert rt < 300.0
    _report("criterion-5 ids-rotation-identity", rt,
            f"AMO lambda=0.5, N=2000, 8 phases, 101 energies: max |N-(1-2rho)| = {err:.2e} < 5e-3")


def test_criterion_06_homological_solver():
    t0 = time.time()
    rng = np.random.default_rng(5)
    sigma = 0.205
    A = np.diag([np.exp(2j * np.pi * sigma), np.exp(-2j * np.pi * sigma)])
    pts = np.linspace(0, 2 * math.pi, 256, endpoint=False)[:, None]
    worst_res, worst_coeff = 0.0, 0.0
    for _ in range(100):
        F = Su11Series.zero(1)
        for _ in range(10):
            n = int(rng.integers(1, 51)) * int(rng.choice([-1, 1]))
            F.w[(n,)] = rng.normal() + 1j * rng.normal()
            c = rng.normal() + 1j * rng.normal()
            F.u[(n,)] = F.u[(n,)] + c
            F.u[(-n,)] = F.u[(-n,)] + np.conj(c)
        Y = solve_homological(A, F, [GOLD])
        for n, v in F.u.coeffs.items():
            worst_coeff = max(worst_coeff, abs(Y.u[n] + v / divisor_w(n, [GOLD], 0.0)))
        for n, v in F.w.coeffs.items():
            worst_coeff = max(worst_coeff, abs(Y.w[n] + v / divisor_w(n, [GOLD], sigma)))
        lhs = (np.einsum("ij,mjk,kl->mil", np.linalg.inv(A),
                         Y.sample(pts + 2 * math.pi * GOLD), A) - Y.sample(pts))
        worst_res = max(worst_res, float(np.max(np.abs(lhs + F.sample(pts)))
                                         / max(F.norm(0.0), 1e-300)))
    rt = time.time() - t0
    assert worst_res <= 1e-10
    assert worst_coeff <= 1e-12
    assert rt < 10.0
    _report("criterion-6 homological-solver", rt,
            f"100 random inputs deg<=50: residual/||F|| <= {worst_res:.1e}, coeff vs oracle <= {worst_coeff:.1e}")


def test_criterion_07_newton_removal():
    t0 = time.time()
    rng = np.random.default_rng(7)
    A = np.diag([np.exp(2j * np.pi * 0.85), np.exp(-2j * np.pi * 0.85)])
    params = KamParams(schedule=None, max_degree=256, grid_size=2048)
    base = Su11Series.zero(1)
    for _ in range(6):
        n = int(rng.integers(1, 13)) * int(rng.choice([-1, 1]))
        base.w[(n,)] = rng.normal() + 1j * rng.normal()
        c = rng.normal() + 1j * rng.normal()
        base.u[(n,)] = base.u[(n,)] + c
        base.u[(-n,)] = base.u[(-n,)] + np.conj(c)
    worst_res = 0.0
    exponents = []
    for amp in np.geomspace(1e-5, 1e-3, 7):
        F = _scaled(base, amp)
        Y, F_star, rep = remove_nonresonant(A, F, 1e-9, 0.02, [GOLD],
                                            _window_rule(A, [GOLD], 40), params)
        worst_res = max(worst_res, _removal_residual(A, F, Y, F_star, [GOLD]))
        s = rep["sweeps"]
        if len(s) >= 2 and s[0] < 1 and s[1] > 0:
            exponents.append(math.log(s[1]) / math.log(s[0]))
    rt = time.time() - t0
    assert worst_res <= 1e-10
    assert exponents and min(exponents) >= 1.5
    assert rt < 60.0
    _report("criterion-7 newton-removal", rt,
            f"residual <= {worst_res:.1e}; contraction exponent >= {min(exponents):.2f} over two decades")


def _mk_state(A, f, alpha=GOLD):
    W_mat = to_su11(np.array([[0.0, 0.0], [1.0, 0.0]]))
    W0 = Su11Series.constant(1, W_mat[0, 0].imag, W_mat[0, 1])
    ident = FourierSeries(1, halved=True, kind="matrix")
    ident[(0,)] = np.eye(2, dtype=complex)
    return KamState(j=0, A=A, f=f, pending=[], W=W0,
                    Dinv=ident.copy(), alpha=np.array([alpha]), n_tilde=(0,))


def test_criterion_08_kam_step(monkeypatch):
    t0 = time.time()
    monkeypatch.setattr(kam, "PROBE_COUNT", 256)
    params = KamParams(schedule=_window_schedule(24), max_degree=96, grid_size=1024,
                       conj_residual_tol=1e-9)
    # non-resonant instance
    A = np.diag([np.exp(2j * np.pi * 0.1545), np.exp(-2j * np.pi * 0.1545)])
    f = Su11Series.zero(1)
    f.w[(3,)] = 2e-6
    f.u[(2,)] = 1e-6
    f.u[(-2,)] = 1e-6
    st = _mk_state(A, f)
    new, rep_nr = kam_step(st, params)
    assert rep_nr.case == "NR" and rep_nr.residual <= 1e-9

    # resonant instance planted at n* = 4
    offset = 1e-5
    sigma = (4 * GOLD / 2 + offset) % 1.0
    A2 = np.diag([np.exp(2j * np.pi * sigma), np.exp(-2j * np.pi * sigma)])
    f2 = Su11Series.zero(1)
    f2.w[(1,)] = 1e-4
    f2.w[(4,)] = 2e-4
    st2 = _mk_state(A2, f2)
    new2, rep_rs = kam_step(st2, params)
    assert rep_rs.case == "RS" and rep_rs.site == (4,)
    assert rep_rs.residual <= 1e-9
    thr = min(kam.RESONANCE_THRESHOLD, 4 * math.sqrt(rep_rs.norm_before))
    # the new constant's angle, cycles in [0, 1/2]: trace 2 cos(2 pi sigma)
    sig_next = math.acos(np.clip(new2.A[0, 0].real, -1, 1)) / (2 * math.pi)
    rho_next = min(sig_next, 1 - sig_next)
    assert rho_next <= 2 * thr
    rt = time.time() - t0
    assert rt < 60.0
    _report("criterion-8 kam-step", rt,
            f"NR residual {rep_nr.residual:.1e}, RS residual {rep_rs.residual:.1e} "
            f"on 256 probes; |rho_next| = {rho_next:.2e} <= 2x threshold")


def test_criterion_09_gap_detection():
    t0 = time.time()
    P = amo_potential(0.5)
    E = np.linspace(-2.6, 2.6, 261)
    curve = rotation_curve(P, [GOLD], E, iters=60_000, samples=2, seed=3)

    def rho_fn(evals):
        return rotation_curve(P, [GOLD], evals, iters=300_000,
                              samples=2, seed=3).rho

    gaps = detect_gaps(curve, [GOLD], labels=[1, 2, 3], tol=2e-3,
                       rho_fn=rho_fn, refine_bisections=14, refine_tol=3e-4)
    g1 = next(g for g in gaps if abs(g.label[0]) == 1)

    # IDS plateau cross-check: N is flat at 1 - 2 rho_lock across the gap
    plateau = 1.0 - 2.0 * g1.rho_locked
    Eg = np.linspace(g1.E_minus - 0.15, g1.E_plus + 0.15, 301)
    ic = ids_curve(P, [GOLD], Eg, N=2000, phases=6, seed=3)
    on_plateau = np.abs(ic.values - plateau) < 2.5e-3
    idx = np.where(on_plateau)[0]
    ids_lo, ids_hi = float(Eg[idx[0]]), float(Eg[idx[-1]])
    assert abs(ids_lo - g1.E_minus) < 1e-2
    assert abs(ids_hi - g1.E_plus) < 1e-2

    # free cocycle: no gaps inside (-2, 2)
    E0 = np.linspace(-1.95, 1.95, 101)
    c0 = rotation_curve(None, [GOLD], E0, iters=30_000, samples=2)
    assert detect_gaps(c0, [GOLD], labels=[1, 2, 3], tol=5e-4) == []
    rt = time.time() - t0
    assert rt < 300.0
    _report("criterion-9 gap-detection", rt,
            f"AMO label-1 gap ({g1.E_minus:.4f},{g1.E_plus:.4f}); IDS edges agree to "
            f"{max(abs(ids_lo - g1.E_minus), abs(ids_hi - g1.E_plus)):.1e}; free cocycle has none")


def test_criterion_10_moser_poschel_closed_forms():
    t0 = time.time()
    rng = np.random.default_rng(10)
    # d(delta) cross-identity on 100 random inputs
    from tests.test_moser_poschel import (
        _averaged_matrix,
        _discriminant_crosscheck,
        _edge_from_series,
        _random_real_sl2_series,
    )
    worst = 0.0
    for _ in range(100):
        B = _random_real_sl2_series(rng)
        edge = _edge_from_series(B, float(rng.uniform(0.001, 0.5)))
        delta = float(rng.uniform(0, 1))
        worst = max(worst, _discriminant_crosscheck(edge, delta))
    assert worst < 1e-12

    # B = identity closed forms
    I = FourierSeries(1, halved=True, kind="sl2r")
    I[(0,)] = np.eye(2, dtype=complex)
    zeta = 0.3
    edge_I = _edge_from_series(I, zeta)
    assert np.allclose(edge_I.P.eval([0.4]), [[-zeta, 0.0], [-1.0, 0.0]], atol=1e-15)
    c1 = _averaged_matrix(edge_I)
    assert np.allclose(c1, [[-zeta / 2, 0.0], [-1.0, zeta / 2]], atol=1e-15)
    assert discriminant(edge_I, delta=0.01) == pytest.approx(-0.003)

    # constant-cocycle probe verdicts match the trace criterion exactly: the
    # free cocycle at E = tr M is constant with the trace of M
    for z, delta in ((0.01, 0.01 ** 1.1), (0.05, 0.02), (0.3, 0.1)):
        C = np.array([[1.0, z], [0.0, 1.0]])
        Pm = np.array([[-z, 0.0], [-1.0, 0.0]])
        M = C - delta * Pm
        rep = uh_test(None, [GOLD], float(np.trace(M)))
        assert rep.verdict == ("hyperbolic" if abs(np.trace(M)) > 2 else "not")
        assert rep.verdict == "hyperbolic"
        rep0 = uh_test(None, [GOLD], float(np.trace(C)))
        assert rep0.verdict == "not"
    rt = time.time() - t0
    assert rt < 5.0
    _report("criterion-10 moser-poschel", rt,
            f"d(delta) identity <= {worst:.1e}; identity-B closed forms exact; "
            f"constant probes match the trace test")


def test_criterion_11_end_to_end_consistency():
    t0 = time.time()
    freq = frequency_vector(GOLDEN_80, gamma=0.5, tau=1.5)
    af = freq.floats()
    sched = build_schedule(10, 0.9, depth=6)
    ks = construct_label_set(freq, sched, j1=0, spacing=2, count=1)
    V = build_potential(ks, k=2.0)
    params = KamParams(tau=1.5, k_exponent=2.0, schedule=sched,
                       max_degree=384, grid_size=2048, conj_residual_tol=1e-9, seed=1)
    res_up = run_reducibility(V, af, {"label_index": 0, "edge": "upper"}, params=params)
    assert res_up.zeta != 0
    assert res_up.conj_residual <= 1e-8

    edge = edge_data_from_reduction(res_up, af)
    br = bracket_gap(edge, V)
    assert br["bracket_consistent"]
    lower, upper = br["bracket"]

    # independent gap measurement: rotation-plateau edges
    n1 = ks.labels()[0]
    E_grid = np.linspace(res_up.energy - 3 * upper, res_up.energy + upper, 41)
    curve = rotation_curve(V, af, E_grid, iters=250_000, samples=2, seed=4)

    def rho_fn(evals):
        return rotation_curve(V, af, evals, iters=250_000,
                              samples=2, seed=4).rho

    gaps = detect_gaps(curve, af, labels=[n1], tol=2e-5, rho_fn=rho_fn,
                       refine_bisections=20)
    g = max(gaps, key=lambda x: x.length)
    factor = max(lower / g.length, g.length / upper, 1.0)
    assert factor <= 10.0
    rt = time.time() - t0
    assert rt < 900.0
    _report("criterion-11 end-to-end", rt,
            f"zeta = {res_up.zeta:.3e}, residual = {res_up.conj_residual:.1e}; "
            f"gap {g.length:.3e} vs bracket [{lower:.3e}, {upper:.3e}] "
            f"(factor {factor:.2f} <= 10)")


def test_criterion_11_edges_within_drift_budget():
    # the drift budget of a change to the Fourier core, on both edges: edge
    # energies within 1e-14, zeta within 1e-10 relative, residuals <= 1e-9;
    # the edge search stops at the indicator's resolution in at most 7
    # reductions on the upper edge and 8 on the lower
    freq = frequency_vector(GOLDEN_80, gamma=0.5, tau=1.5)
    sched = build_schedule(10, 0.9, depth=6)
    ks = construct_label_set(freq, sched, j1=0, spacing=2, count=1)
    V = build_potential(ks, k=2.0)
    params = KamParams(tau=1.5, k_exponent=2.0, schedule=sched,
                       max_degree=384, grid_size=2048, conj_residual_tol=1e-9, seed=1)
    for edge, energy, zeta in (("upper", 1.8806000220263144, 0.005738461448592442),
                               ("lower", 1.8766937910826185, -0.005649683749934033)):
        res = run_reducibility(V, freq.floats(), {"label_index": 0, "edge": edge},
                               params=params)
        assert res.energy == pytest.approx(energy, rel=0, abs=1e-14), edge
        assert res.zeta == pytest.approx(zeta, rel=1e-10, abs=0), edge
        assert res.conj_residual <= 1e-9, edge
        assert res.edge_search["failures"] == [], edge
        assert res.edge_search["evaluations"] <= {"upper": 7, "lower": 8}[edge], edge


def test_criterion_11_edges_and_zeta_keep_their_bits():
    # the one resonant step of each edge runs its Newton sweep on the lattice
    # of the label 16 (32 of its 512 points); the edge energies and zeta are
    # pinned to the bits of its closed-form row-0 products, so any change in
    # the order of the sweep's arithmetic shows here
    freq = frequency_vector(GOLDEN_80, gamma=0.5, tau=1.5)
    sched = build_schedule(10, 0.9, depth=6)
    ks = construct_label_set(freq, sched, j1=0, spacing=2, count=1)
    V = build_potential(ks, k=2.0)
    params = KamParams(tau=1.5, k_exponent=2.0, schedule=sched,
                       max_degree=384, grid_size=2048, conj_residual_tol=1e-9, seed=1)
    for edge, energy, zeta in (("upper", "0x1.e16f00c775ba3p+0", "0x1.781368404383ep-8"),
                               ("lower", "0x1.e06f01194e5ebp+0", "-0x1.7241f6f04c44cp-8")):
        res = run_reducibility(V, freq.floats(), {"label_index": 0, "edge": edge},
                               params=params)
        assert (res.energy.hex(), float(res.zeta).hex()) == (energy, zeta), edge
        [step] = res.reports
        assert (step.diagnostics["sweep_grid"], step.diagnostics["sweep_stride"]) == (512, 16)


def _periodic_trace(values, E):
    """tr S_{q-1} ... S_0 for S_k = [[E - V_k, -1], [1, 0]] and the q values
    V_k of ``values``, by the two column walks from (1, 0) and (0, 1)."""
    a0, a1, b0, b1 = 1.0, 0.0, 0.0, 1.0
    for v in values:
        a0, a1 = (E - v) * a0 - a1, a0
        b0, b1 = (E - v) * b0 - b1, b0
    return a0 + b1


def test_criterion_11_edges_match_the_periodic_approximants():
    # a reference that shares no code with the KAM and does not depend on the
    # order of its products: the band edges tr M_q(E)^2 = 4 of the q-periodic
    # operators of p/q = 1597/2584 and 2584/4181 (phase 0) lie 2.3e-6 and
    # 8.8e-7 from the KAM edges, and their linear extrapolation in p/q - alpha
    # to alpha lies within 1e-11 of them (4.1e-12 measured); the bracket of
    # +-1e-5 is far inside the bands beyond the edges (about 5e-4 wide)
    freq = frequency_vector(GOLDEN_80, gamma=0.5, tau=1.5)
    sched = build_schedule(10, 0.9, depth=6)
    ks = construct_label_set(freq, sched, j1=0, spacing=2, count=1)
    V = build_potential(ks, k=2.0)
    params = KamParams(tau=1.5, k_exponent=2.0, schedule=sched,
                       max_degree=384, grid_size=2048, conj_residual_tol=1e-9, seed=1)
    [alpha] = freq.floats()
    for edge in ("upper", "lower"):
        E = run_reducibility(V, [alpha], {"label_index": 0, "edge": edge},
                             params=params).energy
        shifts, edges = [], []
        for p, q in ((1597, 2584), (2584, 4181)):
            values = potential_values(V, (2 * math.pi * p / q) * np.arange(q)[:, None]).tolist()
            edges.append(brentq(lambda e: _periodic_trace(values, e) ** 2 - 4.0,
                                E - 1e-5, E + 1e-5, xtol=1e-16))
            shifts.append(p / q - alpha)
        extrapolated = edges[1] - shifts[1] * (edges[1] - edges[0]) / (shifts[1] - shifts[0])
        assert abs(extrapolated - E) < 1e-11, (edge, extrapolated - E)


def test_criterion_12_exponent_window_report():
    t0 = time.time()
    from qpsl.spectrum import GapRecord
    k, tau = 2.0, 1.5
    g = GapRecord(label=(16,), E_minus=1.8767, E_plus=1.8806, length=3.9e-3,
                  rho_locked=0.056)
    rep = gap_bounds_check(g, k, tau)
    assert rep["r"] is not None
    assert rep["window"] is not None
    assert rep["window_nonempty"]
    rt = time.time() - t0
    _report("criterion-12 exponent-window", rt,
            f"r = {rep['r']:.3f} reported with window [{rep['window'][0]:.2f}, "
            f"{rep['window'][1]:.2f}]; not asserted at desk scale")
