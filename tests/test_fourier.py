"""Fourier series algebra: evaluation, truncation, products, norm majorants."""

import math

import numpy as np
import pytest

from qpsl.diophantine import frequency_vector, golden_mean
from qpsl.errors import DegreeOverflow, DomainMismatch
from qpsl.fourier import (
    FourierSeries,
    amo_potential,
    build_potential,
    grid_points,
    multiply,
    potential_series,
    series_from_grid,
)
from qpsl.label_set import LabelSet

ALPHA = frequency_vector(golden_mean(40))


def _random_series(rng, d=1, degree=8, kind="scalar", halved=False):
    out = FourierSeries(d, halved=halved, kind=kind)
    for _ in range(12):
        n = tuple(int(rng.integers(-degree, degree + 1)) for _ in range(d))
        if kind == "scalar":
            out[n] = complex(rng.normal(), rng.normal())
        else:
            out[n] = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return out


def test_eval_empty_is_zero():
    F = FourierSeries(1)
    assert F.eval([0.3]) == 0


def test_eval_cosine_pair():
    F = FourierSeries(1)
    F[(3,)] = 0.5
    F[(-3,)] = 0.5
    assert F.eval([0.0]).real == pytest.approx(1.0)
    assert F.eval([math.pi / 3]).real == pytest.approx(-1.0)


def test_eval_matches_bruteforce_oracle():
    rng = np.random.default_rng(0)
    F = _random_series(rng, d=2, degree=5)
    pts = rng.uniform(0, 2 * math.pi, size=(100, 2))
    vals = F.sample(pts)
    # independent summation order: accumulate per point over sorted keys
    for i, th in enumerate(pts):
        acc = 0j
        for n, v in sorted(F.coeffs.items(), reverse=True):
            acc += v * np.exp(1j * (n[0] * th[0] + n[1] * th[1]))
        assert abs(acc - vals[i]) < 1e-12


def test_truncate_project_partition():
    rng = np.random.default_rng(1)
    F = _random_series(rng, degree=9)
    T, R = F.truncate(4), F.project_tail(4)
    back = T + R
    assert set(back.coeffs) == set(F.coeffs)
    for n in F.coeffs:
        assert back[n] == pytest.approx(F[n])
    assert all(F.freq_norm(n) <= 4 for n in T.coeffs)
    assert all(F.freq_norm(n) > 4 for n in R.coeffs)


def test_truncate_whole_and_mean():
    rng = np.random.default_rng(2)
    F = _random_series(rng, degree=6)
    F[(0,)] = 2.0 + 0j
    assert set(F.truncate(99).coeffs) == set(F.coeffs)
    assert len(F.project_tail(99)) == 0
    T0 = F.truncate(0)
    assert list(T0.coeffs) == [(0,)]
    assert T0.mean() == F.mean()


def test_multiply_identity_and_modes():
    rng = np.random.default_rng(3)
    F = _random_series(rng, degree=5)
    one = FourierSeries.constant(1, 1.0 + 0j)
    G = multiply(F, one)
    for n in F.coeffs:
        assert G[n] == pytest.approx(F[n])
    # e^{in.} * e^{im.} = e^{i(n+m).}
    a = FourierSeries(1, {(2,): 1.0 + 0j})
    b = FourierSeries(1, {(5,): 1.0 + 0j})
    c = multiply(a, b)
    assert list(c.coeffs) == [(7,)]


def test_multiply_pointwise_grid():
    rng = np.random.default_rng(4)
    for d in (1, 2):
        F = _random_series(rng, d=d, degree=4)
        G = _random_series(rng, d=d, degree=5)
        H = multiply(F, G)
        pts = rng.uniform(0, 2 * math.pi, size=(40, d))
        assert np.max(np.abs(H.sample(pts) - F.sample(pts) * G.sample(pts))) < 1e-10


def test_multiply_matrix_vs_pointwise():
    rng = np.random.default_rng(5)
    F = _random_series(rng, degree=3, kind="matrix")
    G = _random_series(rng, degree=3, kind="matrix")
    H = multiply(F, G)
    th = rng.uniform(0, 2 * math.pi, size=(10, 1))
    lhs = H.sample(th)
    rhs = np.einsum("mij,mjk->mik", F.sample(th), G.sample(th))
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_multiply_drop_accounting_and_strict():
    a = FourierSeries(1, {(4,): 1.0 + 0j, (0,): 1.0 + 0j})
    b = FourierSeries(1, {(4,): 2.0 + 0j})
    c = multiply(a, b, max_degree=5)
    assert (8,) not in c.coeffs
    assert c.dropped_mass == pytest.approx(2.0)
    with pytest.raises(DegreeOverflow):
        multiply(a, b, max_degree=5, strict=True)


def test_analytic_norm_cases():
    F = FourierSeries.constant(1, 3.0 + 4.0j)
    assert F.analytic_norm(0.7) == pytest.approx(5.0)
    G = FourierSeries(1, {(3,): 2.0 + 0j})
    assert G.analytic_norm(0.0) == pytest.approx(2.0)
    assert G.analytic_norm(0.1) == pytest.approx(2.0 * math.exp(0.3))


def test_analytic_norm_submultiplicative():
    rng = np.random.default_rng(6)
    F = _random_series(rng, degree=4)
    G = _random_series(rng, degree=4)
    H = multiply(F, G)
    for h in (0.0, 0.05, 0.2):
        assert H.analytic_norm(h) <= F.analytic_norm(h) * G.analytic_norm(h) + 1e-12


def test_ck_norm_cases():
    F = FourierSeries.constant(1, 2.0 + 0j)
    for k in (0, 1, 5):
        assert F.ck_norm_estimate(k) == pytest.approx(2.0)
    G = FourierSeries(1, {(4,): 1.5 + 0j})
    assert G.ck_norm_estimate(3) / G.ck_norm_estimate(2) == pytest.approx(5.0)


def test_halved_series_and_lift():
    F = FourierSeries(1, {(2,): 1.0 + 0j})  # e^{i theta} seen on 2T
    G = F.copy()
    G.halved = True
    assert G.freq_norm((2,)) == 1.0
    assert G.eval([math.pi]).real == pytest.approx(-1.0)
    H = FourierSeries(1, {(1,): 1.0 + 0j})
    assert np.allclose(H.lift_halved().eval([0.7]), H.eval([0.7]))
    # product auto-lifts the integer factor
    P = multiply(G, H)
    assert P.halved


def test_shift_matches_translated_eval():
    rng = np.random.default_rng(7)
    F = _random_series(rng, degree=6)
    alpha = 0.31
    G = F.shift([alpha])
    for th in rng.uniform(0, 2 * math.pi, 10):
        assert abs(G.eval([th]) - F.eval([th + 2 * math.pi * alpha])) < 1e-12


def test_real_symmetry_residual():
    F = FourierSeries(1, {(2,): 1 + 2j, (-2,): 1 - 2j})
    assert F.real_symmetry_residual() == 0.0
    F[(3,)] = 1.0 + 0j
    assert F.real_symmetry_residual() == pytest.approx(1.0)


def test_domain_mismatch():
    F = FourierSeries(2)
    with pytest.raises(DomainMismatch):
        F.eval([0.1])
    with pytest.raises(DomainMismatch):
        F[(1,)] = 1.0


def test_json_roundtrip_scalar_and_matrix():
    rng = np.random.default_rng(8)
    for kind in ("scalar", "matrix"):
        F = _random_series(rng, degree=4, kind=kind)
        G = FourierSeries.from_json(F.to_json())
        assert set(G.coeffs) == set(F.coeffs)
        for n in F.coeffs:
            assert np.allclose(G[n], F[n])


def test_potential_single_label():
    ks = LabelSet.from_labels([(5,)], ALPHA)
    P = build_potential(ks, k=2.0)
    assert P.sample(0.0) == pytest.approx(0.04)
    assert P.sample(math.pi / 5) == pytest.approx(-0.04)


def test_potential_two_labels_oracle():
    ks = LabelSet.from_labels([(5,), (11,)], ALPHA)
    P = build_potential(ks, k=2.0)
    expected = math.cos(5.0) / 25 + math.cos(11.0) / 121
    assert P.sample(1.0) == pytest.approx(expected, abs=1e-15)
    S = potential_series(P)
    assert S[(5,)] == pytest.approx(1 / 50)
    assert S[(-11,)] == pytest.approx(1 / 242)
    assert abs(S.eval([1.0]) - expected) < 1e-14


def test_potential_series_real_and_ck_bound():
    ks = LabelSet.from_labels([(5,), (11,), (23,)], ALPHA)
    P = build_potential(ks, k=3.0)
    S = potential_series(P)
    assert S.real_symmetry_residual() == 0.0
    k = 3
    bound = sum((1 + abs(n[0])) ** k * abs(n[0]) ** (-3.0) for n in ks.labels())
    assert S.ck_norm_estimate(k) <= bound + 1e-12
    assert S.ck_norm_estimate(k) <= len(ks.labels()) * 2 ** k


def test_amo_potential():
    P = amo_potential(0.5)
    assert P.sample(0.0) == pytest.approx(1.0)
    assert P.sample(np.array([0.0, math.pi])).tolist() == pytest.approx([1.0, -1.0])


def _oracle_norm(v):
    if np.isscalar(v) or getattr(v, "ndim", 0) == 0:
        return abs(v)
    return float(np.linalg.norm(v, 2))


def _oracle_series_from_grid(values, d, halved=False, kind="scalar", max_degree=None,
                             prune_tol=None):
    """The per-mode loop series_from_grid used before it was vectorised, as
    ({key: coefficient}, dropped mass)."""
    values = np.asarray(values)
    scalar = kind == "scalar"
    G = round(values.shape[0] ** (1.0 / d))
    shape = (G,) * d
    if scalar:
        spec = np.fft.fftn(values.reshape(shape)) / (G ** d)
    else:
        spec = np.fft.fftn(values.reshape(shape + (2, 2)), axes=tuple(range(d))) / (G ** d)
    out = {}
    scale = 0.5 if halved else 1.0
    freqs = np.fft.fftfreq(G, 1.0 / G).astype(int)
    dropped = 0.0
    mass_floor = prune_tol if prune_tol is not None else 0.0
    for idx in np.ndindex(*shape):
        key = tuple(int(freqs[i]) for i in idx)
        val = spec[idx]
        m = _oracle_norm(val)
        if m <= mass_floor:
            continue
        if max_degree is not None and max(abs(c) for c in key) * scale > max_degree:
            dropped += m
            continue
        out[key] = complex(val) if scalar else np.asarray(val)
    return out, dropped


def _grid_values(rng, d, G, kind, case):
    """Grid samples whose spectrum spans many decades, so that both pruning
    thresholds and the degree cut fall between live modes."""
    tail = (2, 2) if kind == "matrix" else ()
    size = (G ** d,) + tail
    if case == "zero":
        return np.zeros(size, complex)
    if case == "constant":
        return np.full(size, 0.7 - 0.2j)
    decades = rng.uniform(0.0, 20.0, size=size)
    spec = (rng.normal(size=size) + 1j * rng.normal(size=size)) * 10.0 ** -decades
    spec[rng.random(size=size) < 0.2] = 0.0
    vals = np.fft.ifftn(spec.reshape((G,) * d + tail), axes=tuple(range(d))) * G ** d
    if case == "real":
        vals = vals.real.astype(complex)
    if case == "nan":
        vals.flat[0] = np.nan
    return vals.reshape(size)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("kind", ["scalar", "matrix"])
@pytest.mark.parametrize("halved", [False, True])
@pytest.mark.parametrize("d", [1, 2])
def test_series_from_grid_matches_mode_loop(kind, halved, d):
    rng = np.random.default_rng(17 + 4 * d + 2 * halved + (kind == "matrix"))
    G = 16 if d == 1 else 8
    # NaN matrices stop the SVD of both versions; scalars must keep NaN modes
    cases = ("random", "real", "constant", "zero") + (("nan",) if kind == "scalar" else ())
    for case in cases:
        values = _grid_values(rng, d, G, kind, case)
        for prune_tol in (None, 1e-16):
            for max_degree in (None, G // 2 - 3, 1.5):
                got = series_from_grid(values, d, halved=halved, kind=kind,
                                       max_degree=max_degree, prune_tol=prune_tol)
                want, want_dropped = _oracle_series_from_grid(
                    values, d, halved=halved, kind=kind, max_degree=max_degree,
                    prune_tol=prune_tol)
                got_coeffs = got.coeffs
                assert sorted(got_coeffs) == sorted(want)
                assert all(type(c) is int for n in got_coeffs for c in n)
                for n, v in want.items():
                    assert type(got_coeffs[n]) is type(v)
                    assert _same_bits(got_coeffs[n], v)
                assert _same_bits(float(got.dropped_mass), float(want_dropped))
                assert (got.d, got.halved, got.kind) == (d, halved, kind)
                # prune's batched norms: a tolerance equal to a live norm is pruned
                norms = [_oracle_norm(v) for v in want.values()]
                tol = norms[len(norms) // 2] if norms else 0.0
                assert sorted(got.copy().prune(tol).coeffs) == sorted(
                    n for n, m in zip(want, norms) if not m <= tol)


@pytest.mark.parametrize("kind", ["scalar", "matrix"])
@pytest.mark.parametrize("halved", [False, True])
@pytest.mark.parametrize("d", [1, 2])
def test_series_from_grid_roundtrip(kind, halved, d):
    rng = np.random.default_rng(3)
    F = _random_series(rng, d=d, degree=5, kind=kind, halved=halved)
    G = 16
    back = series_from_grid(F.sample(grid_points(d, G, halved=halved)), d,
                            halved=halved, kind=kind, prune_tol=1e-12)
    assert set(back.coeffs) == set(F.coeffs)
    for n, v in F.coeffs.items():
        assert np.max(np.abs(back[n] - v)) < 1e-13
    assert back.dropped_mass == 0.0
    cut = series_from_grid(F.sample(grid_points(d, G, halved=halved)), d,
                           halved=halved, kind=kind, prune_tol=1e-12, max_degree=1)
    assert set(cut.coeffs) == {n for n in F.coeffs if F.freq_norm(n) <= 1}
    assert cut.dropped_mass == pytest.approx(F.project_tail(1).coeff_mass(), rel=1e-12)
