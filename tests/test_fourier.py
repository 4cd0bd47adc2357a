"""Fourier series algebra: evaluation, products, grid transforms, norm majorants."""

import json
import math

import numpy as np
import pytest

from qpsl.diophantine import frequency_vector, golden_mean
from qpsl.errors import DomainMismatch, QpslError
from qpsl.fourier import (
    FourierSeries,
    _coeff_norms,
    amo_potential,
    build_potential,
    dilate,
    grid_points,
    grid_values,
    key_grid,
    lattice_values,
    multiply,
    potential_modes,
    series_from_grid,
    shift_sum,
    stack_blocks,
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


def test_multiply_drop_accounting():
    a = FourierSeries(1, {(4,): 1.0 + 0j, (0,): 1.0 + 0j})
    b = FourierSeries(1, {(4,): 2.0 + 0j})
    c = multiply(a, b, max_degree=5)
    assert (8,) not in c.coeffs
    assert c.dropped_mass == pytest.approx(2.0)


def _dense_norms(values, scalar):
    """Coefficient norms over every slot: one SVD of the whole stack."""
    values = np.asarray(values)
    if scalar:
        return np.hypot(values.real, values.imag)
    return np.linalg.svd(values, compute_uv=False).max(axis=-1)


def _lifted(F):
    """F on the doubled torus: the block with its key n moved to 2n, zeros
    between (F itself when already halved)."""
    if F.halved:
        return F
    block = np.zeros((4 * F.K + 1,) * F.d + F._tail, complex)
    block[(slice(None, None, 2),) * F.d] = F.block
    return FourierSeries.from_block(F.d, block, halved=True, kind=F.kind)


def _dense_multiply(F, G, max_degree=None):
    """The product as a shift-and-add of whole blocks: each nonzero mode of
    the sparser factor, in key order, times every slot of the other's block,
    zero slots included, added into the output at the moved window."""
    A, B = (F, G) if F.halved == G.halved else (_lifted(F), _lifted(G))
    scalar = F.kind == "scalar"
    mul = np.multiply if scalar else np.matmul
    if len(B) <= len(A):
        copies = [(k, mul(A.block, v)) for k, v in zip(*B.modes())]
    else:
        copies = [(k, mul(v, B.block)) for k, v in zip(*A.modes())]
    K_out = A.K + B.K
    block = np.zeros((2 * K_out + 1,) * A.d + A._tail, complex)
    for k, piece in copies:
        K = (piece.shape[0] - 1) // 2
        block[tuple(slice(K_out + c - K, K_out + c + K + 1) for c in k)] += piece
    out = FourierSeries.from_block(A.d, block, A.halved, "scalar" if scalar else "matrix")
    if max_degree is not None:
        over = out._freq_norms() > max_degree
        mass = _dense_norms(out.block[over], scalar)
        out = out.restrict(~over)
        out.dropped_mass = float(np.sum(mass))
    return out


def _sparse_series(rng, d, degree, count, kind, halved):
    """``count`` random modes spread over a block of half-width ``degree``,
    some of them sharing keys, so several pairs meet in one output slot."""
    keys = rng.integers(-degree, degree + 1, size=(count, d))
    half = count // 2
    keys[half:] = keys[:count - half] + rng.integers(-1, 2, size=(count - half, d))
    tail = () if kind == "scalar" else (2, 2)
    vals = rng.normal(size=(count,) + tail) + 1j * rng.normal(size=(count,) + tail)
    if kind != "scalar":  # matrices with zero entries in live slots
        vals[::3, 0, 1] = 0.0
    return FourierSeries.from_modes(d, np.clip(keys, -degree, degree), vals, halved, kind)


@pytest.mark.parametrize("kind", ["scalar", "matrix"])
@pytest.mark.parametrize("d", [1, 2])
def test_multiply_matches_the_dense_shift_and_add_bit_for_bit(kind, d):
    rng = np.random.default_rng(40 + 2 * d + (kind == "matrix"))
    degree = 30 if d == 1 else 7
    for trial in range(12):
        halved = (trial % 3 == 1, trial % 3 == 2)
        counts = (14, 5) if trial % 2 else (5, 14)  # both sparser-factor branches
        F = _sparse_series(rng, d, degree, counts[0], kind, halved[0])
        G = _sparse_series(rng, d, degree // 2, counts[1], kind, halved[1])
        for max_degree in (None, degree / 2, 1.5 * degree, 0.5):
            got, want = multiply(F, G, max_degree), _dense_multiply(F, G, max_degree)
            assert (got.halved, got.kind, got.K) == (want.halved, want.kind, want.K)
            assert got.block.tobytes() == want.block.tobytes()
            assert got.dropped_mass == want.dropped_mass


@pytest.mark.parametrize("shape", [(9,), (5, 7), (0,), (4,)])
def test_coeff_norms_match_the_full_stack_svd_bit_for_bit(shape):
    rng = np.random.default_rng(sum(shape))
    values = rng.normal(size=shape + (2, 2)) + 1j * rng.normal(size=shape + (2, 2))
    flat = values.reshape(-1, 2, 2)
    flat[::2] = 0.0                       # zero slots, among them the first
    flat[1::4, 1, :] = 0.0                # live slots with a zero row
    if flat.shape[0] > 3:
        flat[3, 0, 0] = np.inf            # the SVD reads NaN, in both
    got, want = _coeff_norms(values, False), _dense_norms(values, False)
    assert got.dtype == want.dtype and got.shape == want.shape == shape
    assert got.tobytes() == want.tobytes()
    assert float(np.sum(got)).hex() == float(np.sum(want)).hex()
    assert _coeff_norms(np.zeros(shape + (2, 2), complex), False).tobytes() == \
        _dense_norms(np.zeros(shape + (2, 2), complex), False).tobytes()
    if flat.shape[0]:                     # a NaN slot stops the SVD of both
        flat[0, 1, 1] = np.nan
        for norms in (_coeff_norms, _dense_norms):
            with pytest.raises(np.linalg.LinAlgError):
                norms(values, False)


def test_shift_sum_is_the_product_with_a_sparse_series():
    rng = np.random.default_rng(9)
    F = _random_series(rng, degree=6)
    keys, vals = [(-9,), (4,)], [0.5 + 1j, -2.0 + 0j]
    product = multiply(FourierSeries(1, dict(zip(keys, vals))), F)
    assert np.allclose(shift_sum(F, keys, vals).padded(15), product.padded(15), atol=1e-14)
    # past max_degree each moved copy adds its own tail mass
    cut = shift_sum(F, keys, vals, max_degree=10)
    assert cut.K == 10
    kept = product.restrict(product._freq_norms() <= 10)
    assert np.allclose(cut.padded(15), kept.padded(15), atol=1e-14)
    tail = sum(abs(v * c) for (k,), v in zip(keys, vals) for (n,), c in F.coeffs.items()
               if abs(n + k) > 10)
    assert cut.dropped_mass == pytest.approx(tail, rel=1e-14)


def _dense_shift_sum(F, keys, values, max_degree=None):
    """shift_sum as a shift of whole blocks: each copy v F, zero slots
    included, added at its moved window cut to the output block, and its
    mass past the cut summed over every slot of the copy."""
    keys = np.asarray(keys, dtype=np.int64).reshape(-1, F.d)
    K_out = F.K + int(np.abs(keys).max(initial=0))
    if max_degree is not None:
        K_out = min(K_out, math.floor(max_degree / (0.5 if F.halved else 1.0)))
    block, dropped = np.zeros((2 * K_out + 1,) * F.d + F._tail, complex), 0.0
    for k, v in zip(keys.tolist(), values):
        piece = v * F.block
        moved = [np.arange(-F.K, F.K + 1) + c for c in k]
        inside = [np.abs(m) <= K_out for m in moved]
        block[np.ix_(*[m[i] + K_out for m, i in zip(moved, inside)])] += piece[np.ix_(*inside)]
        norms = _dense_norms(piece, not F._tail)
        norms[np.ix_(*inside)] = 0.0
        dropped += float(np.sum(norms))
    out = FourierSeries.from_block(F.d, block, F.halved, F.kind)
    out.dropped_mass = dropped
    return out


@pytest.mark.parametrize("kind", ["scalar", "matrix"])
@pytest.mark.parametrize("d", [1, 2])
def test_shift_sum_matches_the_dense_shift(kind, d):
    # the placed coefficients keep their bits; the dropped mass, summed over
    # nonzero products only, agrees to rounding
    rng = np.random.default_rng(60 + 2 * d + (kind == "matrix"))
    degree = 30 if d == 1 else 7
    for trial in range(6):
        F = _sparse_series(rng, d, degree, 9, kind, trial % 2 == 1)
        keys = rng.integers(-3 * degree, 3 * degree + 1, size=(4, d))
        values = rng.normal(size=4) + 1j * rng.normal(size=4)
        for max_degree in (None, degree / 2, 2.5 * degree, 0.5):
            got = shift_sum(F, keys, values, max_degree)
            want = _dense_shift_sum(F, keys, values, max_degree)
            assert (got.halved, got.kind, got.K) == (want.halved, want.kind, want.K)
            assert got.block.tobytes() == want.block.tobytes()
            assert got.dropped_mass == pytest.approx(want.dropped_mass, rel=1e-14, abs=0)


def test_multiply_rejects_a_scalar_times_a_matrix_series():
    scalar = FourierSeries(1, {(1,): 1.0 + 0j})
    matrix = FourierSeries.constant(1, np.eye(2, dtype=complex))
    for F, G in ((scalar, matrix), (matrix, scalar)):
        with pytest.raises(QpslError, match="two scalar or two matrix series"):
            multiply(F, G)


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
    assert G.degree == 1.0
    assert G.eval([math.pi]).real == pytest.approx(-1.0)
    H = FourierSeries(1, {(1,): 1.0 + 0j})
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


@pytest.mark.parametrize("d", [1, 2])
def test_key_grid_is_shared_and_read_only(d):
    keys = key_grid(3, d)
    assert keys is key_grid(3, d) and keys.shape == (7,) * d + (d,)
    assert keys[(0,) * d].tolist() == [-3] * d and keys[(6,) * d].tolist() == [3] * d
    with pytest.raises(ValueError, match="read-only"):
        keys[(0,) * d] = 0
    assert key_grid(3, d)[(0,) * d].tolist() == [-3] * d


def test_domain_mismatch():
    F = FourierSeries(2)
    with pytest.raises(DomainMismatch):
        F.eval([0.1])
    with pytest.raises(DomainMismatch):
        F[(1,)] = 1.0


@pytest.mark.parametrize("call, error, match", [
    (lambda: FourierSeries.from_modes(2, [(1,)], [1.0]), DomainMismatch, "keys have length 1"),
    (lambda: FourierSeries.from_modes(1, [(1,)], [np.eye(2)]), QpslError,
     "coefficients must have shape"),
    (lambda: FourierSeries(2)[3], DomainMismatch, "key \\(3,\\) has length 1"),
    (lambda: FourierSeries(1, kind="matrix").__setitem__((1,), 1.0), QpslError,
     "must be 2x2"),
    (lambda: FourierSeries(2).shift([0.1]), DomainMismatch, "alpha dimension"),
    (lambda: FourierSeries(1).analytic_norm(-0.1), QpslError, "h must be >= 0"),
    (lambda: FourierSeries(1).ck_norm_estimate(1.5), QpslError, "nonnegative integer"),
    (lambda: multiply(FourierSeries(1), FourierSeries(2)), DomainMismatch, "dimension"),
    (lambda: build_potential(LabelSet(1, [], ALPHA), k=2.0), QpslError, "empty"),
    (lambda: build_potential(LabelSet.from_labels([(5,)], ALPHA), k=0.0), QpslError,
     "k must be positive"),
    (lambda: build_potential(LabelSet.from_labels([(0,)], ALPHA), k=2.0), QpslError,
     "zero label"),
    (lambda: series_from_grid(np.zeros(10), 2), QpslError, "do not form a cube"),
], ids=["from-modes-key-length", "from-modes-shape", "int-key-length", "setitem-shape",
        "shift-alpha", "analytic-h", "ck-k", "multiply-d", "empty-label-set",
        "k-not-positive", "zero-label", "grid-not-a-cube"])
def test_fourier_rejects_bad_input(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_int_key_and_one_dimensional_thetas_for_d1():
    F = FourierSeries(1, {(3,): 0.5 + 0j, (-3,): 0.5 + 0j})
    assert F[3] == F[(3,)] == 0.5
    th = np.array([0.0, math.pi / 3, 1.1])
    assert _same_bits(F.sample(th), F.sample(th[:, None]))


def test_json_roundtrip_scalar_and_matrix():
    rng = np.random.default_rng(8)
    for kind in ("scalar", "matrix"):
        F = _random_series(rng, degree=4, kind=kind)
        G = FourierSeries.from_dict(json.loads(json.dumps(F.as_dict())))
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
    S = FourierSeries.from_modes(P.d, *potential_modes(P))
    assert S[(5,)] == pytest.approx(1 / 50)
    assert S[(-11,)] == pytest.approx(1 / 242)
    assert abs(S.eval([1.0]) - expected) < 1e-14


def test_potential_series_real_and_ck_bound():
    ks = LabelSet.from_labels([(5,), (11,), (23,)], ALPHA)
    P = build_potential(ks, k=3.0)
    keys, vals = potential_modes(P)
    # V is real: V(-n) = conj V(n), the keys sorted symmetrically about 0
    assert np.array_equal(keys, -keys[::-1]) and np.array_equal(vals, np.conj(vals[::-1]))
    S = FourierSeries.from_modes(P.d, keys, vals)
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


def _add_at_grid_values(F, G):
    """The values of F on the G^d grid with its modes folded by np.add.at in
    the C order of their keys, as grid_values folded them before it summed
    chunks of the block."""
    spec = np.zeros((G,) * F.d + F.block.shape[F.d:], complex)
    np.add.at(spec, np.ix_(*[np.arange(-F.K, F.K + 1) % G] * F.d), F.block)
    vals = np.fft.ifftn(spec, axes=tuple(range(F.d))) * (G ** F.d)
    return vals.reshape((G ** F.d,) + F.block.shape[F.d:])


@pytest.mark.parametrize("kind", ["scalar", "matrix"])
@pytest.mark.parametrize("d", [1, 2])
def test_grid_transform_stacks_equal_single_calls(kind, d):
    # one FFT over a stack gives each row the bits of its own call and of the
    # np.add.at fold, also when a series folds (degree 11 > G/2, and 20 > G)
    # or is moved by a shift
    rng = np.random.default_rng(5 + d + 2 * (kind == "matrix"))
    G = 16 if d == 1 else 8
    series = [_random_series(rng, d=d, degree=deg, kind=kind) for deg in (3, 5, 11, 20)]
    series = [F if i != 1 else F.shift(np.full(d, 0.3183)) for i, F in enumerate(series)]
    vals = grid_values(stack_blocks(series), G, d)
    assert vals.shape == (4, G ** d) + (() if kind == "scalar" else (2, 2))
    for row, F in zip(vals, series):
        assert _same_bits(row, grid_values(F.block[None], G, d)[0])
        assert _same_bits(row, _add_at_grid_values(F, G))
        assert np.max(np.abs(row - F.sample(grid_points(d, G)))) < 1e-12
    back = series_from_grid(vals, d, kind=kind, max_degree=2, prune_tol=1e-16)
    assert len(back) == 4
    for got, row in zip(back, vals):
        want = series_from_grid(row, d, kind=kind, max_degree=2, prune_tol=1e-16)
        assert _same_bits(got.block, want.block)
        assert _same_bits(float(got.dropped_mass), float(want.dropped_mass))


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
    scale = 0.5 if halved else 1.0
    tail = {n: v for n, v in F.coeffs.items() if max(map(abs, n)) * scale > 1}
    assert set(cut.coeffs) == set(F.coeffs) - set(tail)
    norm = np.abs if kind == "scalar" else lambda v: np.linalg.norm(v, 2)
    assert cut.dropped_mass == pytest.approx(sum(norm(v) for v in tail.values()), rel=1e-12)


def _lattice_series(rng, d, g, degree, kind="scalar", halved=False):
    """A random series whose nonzero modes all sit at multiples of g, up to
    ``degree`` lattice keys per axis."""
    F = _random_series(rng, d=d, degree=degree, kind=kind, halved=halved)
    return FourierSeries.from_block(d, dilate(F.block[None], g, d)[0], halved=halved,
                                    kind=kind)


@pytest.mark.parametrize("kind", ["scalar", "matrix"])
@pytest.mark.parametrize("halved", [False, True])
@pytest.mark.parametrize("cut", [False, True])
@pytest.mark.parametrize("d", [1, 2])
def test_strided_transform_pair_equals_the_dense_pair(kind, halved, cut, d):
    # on G / g points per axis the pair gives the dense G-point pair's values
    # (one period of them) and spectra within 1e-15 relative, the degree cut
    # in frequency units, and exact zeros off the lattice
    rng = np.random.default_rng(23 + 4 * d + 2 * halved + (kind == "matrix"))
    g, G, max_degree = (4, 64, 7) if d == 1 else (2, 16, 2)
    max_degree = max_degree if cut else None
    F = _lattice_series(rng, d, g, 5 if d == 1 else 3, kind, halved)
    vals, stride = lattice_values([F], G)
    assert F.stride % g == 0 and stride == g
    dense = grid_values(F.block[None], G, d)
    period = dense.reshape((G,) * d + dense.shape[2:])[(slice(G // g),) * d]
    scale = np.max(np.abs(dense))
    assert np.max(np.abs(vals[0] - period.reshape(vals.shape[1:]))) <= 1e-15 * scale
    want = series_from_grid(dense[0], d, halved=halved, kind=kind, max_degree=max_degree)
    got = series_from_grid(vals[0], d, halved=halved, kind=kind, max_degree=max_degree,
                           stride=g)
    K = max(want.K, got.K)
    block, ref = got.padded(K), want.padded(K)
    assert np.max(np.abs(block - ref)) <= 1e-15 * np.max(np.abs(ref))
    assert got.dropped_mass == pytest.approx(want.dropped_mass, rel=1e-15, abs=0)
    assert cut == (got.dropped_mass > 0.1)
    assert got.degree <= (max_degree or np.inf)
    on_lattice = (key_grid(K, d) % g == 0).all(axis=-1)
    assert (block[~on_lattice] == 0).all()


@pytest.mark.parametrize("d", [1, 2])
def test_stride_of_zero_constant_and_unaligned_content(d):
    rng = np.random.default_rng(31 + d)
    # no mode off key 0: stride 0, and lattice_values takes g = G, one point
    # per axis, whose transform returns the constant with its bits
    zero, const = FourierSeries(d), FourierSeries.constant(d, 0.3 - 0.2j)
    for F in (zero, const):
        vals, g = lattice_values([F], 32)
        assert F.stride == 0 and g == 32
        assert vals.shape == (1, 1) and vals[0, 0] == F.mean()
        assert _same_bits(series_from_grid(vals[0], d, stride=g).block, F.block)
    assert lattice_values([zero, const], 32)[1] == 32
    # content on the multiples of 16, a grid of 24 points: g is 8, with the
    # constant too; a series on the multiples of 6 beside it takes g to 2
    F = _lattice_series(rng, d, 16, 2)
    six = FourierSeries(d, {(6,) * d: 1.0})
    assert F.stride == 16 and lattice_values([F], 24)[1] == 8
    assert lattice_values([F, const], 24)[1] == 8
    vals, g = lattice_values([F, six], 24)
    dense = grid_values(stack_blocks([F, six]), 24, d)
    period = dense.reshape((2,) + (24,) * d)[(slice(None),) + (slice(12),) * d]
    assert g == 2 and vals.shape == (2, 12 ** d)
    assert np.max(np.abs(vals - period.reshape(vals.shape))) <= 1e-14
    # on 72 points (g 8, nine per axis, enough for F's keys) the round trip
    # gives the dense one's spectrum, on ordinary keys
    dense = series_from_grid(grid_values(F.block[None], 72, d)[0], d, prune_tol=1e-12)
    vals, g = lattice_values([F], 72)
    got = series_from_grid(vals[0], d, prune_tol=1e-12, stride=g)
    assert g == 8 and got.K == dense.K == F.K and got.stride == 16
    assert np.max(np.abs(got.block - dense.block)) <= 1e-15 * np.max(np.abs(F.block))
