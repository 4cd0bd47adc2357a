"""Gap-edge probing: perturb the energy off a reduced edge and decide
hyperbolicity from the averaged matrix and the discriminant.

With B reducing the edge cocycle to C = [[1, zeta], [0, 1]], lowering the
energy by delta conjugates S_{E-delta} to C - delta P(theta) where P is an
explicit quadratic expression in the entries of B.  The mean of P drives a
constant part e^{c0 - delta c1} whose determinant sign decides which side of
the spectrum the probe landed on; the discriminant

    d(delta) = -delta [B11^2] zeta + delta^2 ([B11^2][B12^2] - [B11 B12]^2)

is negative inside the gap and positive past the opposite edge.  The probes
delta_2 = zeta^{11/10} (certified inside) and delta_1 = zeta^{9/10}
(certified beyond) bracket the gap length.  All averages [.] are the zero
Fourier modes of entry products, computed exactly from the series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import mpmath
import numpy as np

from .cocycle import oscillation_rho, rotation_number, schrodinger_cocycle, uh_test
from .diophantine import dist_to_integers
from .errors import QpslError
from .fourier import FourierSeries, multiply
from .kam import ReducibilityResult

__all__ = [
    "EdgeData", "ProbeResult",
    "edge_data_from_reduction", "perturbation_matrix", "averaged_matrix",
    "discriminant", "poly_bounds_check", "probe_gap_edge", "bracket_gap",
    "d_tau_constant",
]


def _entry(B: FourierSeries, i, j):
    return B.map_values(lambda c: c[..., i, j], kind="scalar")


def _mean_product(F: FourierSeries, G: FourierSeries):
    """Zero mode of F*G, exactly from coefficients: sum_n F(n) G(-n)."""
    K = max(F.K, G.K)
    return complex(np.sum(F.padded(K) * np.flip(G.padded(K))))


def _averages(B: FourierSeries):
    """(A11, A12, A22) = ([B11^2], [B11 B12], [B12^2]), complex."""
    B11 = _entry(B, 0, 0)
    B12 = _entry(B, 0, 1)
    return (_mean_product(B11, B11), _mean_product(B11, B12),
            _mean_product(B12, B12))


def d_tau_constant(k0, k_hat, tau, d):
    """8 sum_{m>=1} (2 pi m)^(-s) = 8 (2 pi)^(-s) zeta(s) with
    s = k0 - k_hat - 3 tau - d + 1, finite for k_hat < k0 - 3 tau - d."""
    s = k0 - k_hat - 3 * tau - d + 1
    if s <= 1:
        return math.inf
    return float(8 * (2 * mpmath.pi) ** (-s) * mpmath.zeta(s))


@dataclass
class EdgeData:
    """Averages of the reducing matrix at a gap edge.

    A11 = [B11^2], A12 = [B11 B12], A22 = [B12^2]; Cauchy-Schwarz gives
    A11 A22 - A12^2 >= 0, and A11 >= (2 ||B||_{k0})^{-2}.
    """

    B: FourierSeries
    zeta: float
    energy: float
    alpha: np.ndarray
    A11: float
    A12: float
    A22: float
    k0: int
    k_hat: int
    D_tau: float
    b_norm_k0: float
    checks: dict = field(default_factory=dict)


def edge_data_from_reduction(result: ReducibilityResult, alpha, tau=1.5,
                             k0=None, k_hat=None):
    """Assemble the probe data from a reducibility run.

    k_hat defaults to k0 - ceil(3 tau) - d - 1 (the smoothness the averaged
    step retains).
    """
    B = result.B
    d = B.d
    if k0 is None:
        k0 = max(result.k0, 1)
    if k_hat is None:
        k_hat = int(k0 - math.ceil(3 * tau) - d - 1)
    A11, A12, A22 = _averages(B)
    for name, val in (("A11", A11), ("A12", A12), ("A22", A22)):
        if abs(val.imag) > 1e-9 * max(1.0, abs(val)):
            raise QpslError(f"{name} has imaginary part {val.imag:.3e}")
    A11, A12, A22 = A11.real, A12.real, A22.real
    b_norm = B.ck_norm_estimate(k0)
    checks = {
        "cauchy_schwarz": A11 * A22 - A12 ** 2 >= -1e-12 * max(1.0, A11 * A22),
        "a11_lower_bound": A11 >= (2 * b_norm) ** (-2) - 1e-12,
    }
    return EdgeData(B=B, zeta=result.zeta, energy=result.energy,
                    alpha=np.atleast_1d(np.asarray(alpha, float)),
                    A11=A11, A12=A12, A22=A22, k0=k0, k_hat=k_hat,
                    D_tau=d_tau_constant(k0, k_hat, tau, d), b_norm_k0=b_norm,
                    checks=checks)


def perturbation_matrix(B: FourierSeries, zeta, max_degree=None):
    """P = [[B11 B12 - zeta B11^2, -zeta B11 B12 + B12^2],
           [-B11^2, -B11 B12]] as a matrix series.

    Satisfies B(.+alpha)^{-1} S_{E-delta} B(.) = C - delta P(.) when (B, zeta)
    reduce the edge cocycle, and trace P = -zeta B11^2 pointwise.
    """
    B11 = _entry(B, 0, 0)
    B12 = _entry(B, 0, 1)
    sq11 = multiply(B11, B11, max_degree=max_degree)
    cross = multiply(B11, B12, max_degree=max_degree)
    sq12 = multiply(B12, B12, max_degree=max_degree)
    K = max(sq11.K, cross.K, sq12.K)
    a, b, c = sq11.padded(K), cross.padded(K), sq12.padded(K)
    block = np.stack([b - zeta * a, -zeta * b + c, -a, -b], axis=-1)
    return FourierSeries.from_block(B.d, block.reshape(a.shape + (2, 2)),
                                    halved=B.halved, kind="matrix")


def averaged_matrix(edge_or_B, zeta=None):
    """c1 = [[A12 - zeta A11/2, -zeta A12 + A22], [-A11, -A12 + zeta A11/2]]
    (trace zero exactly): the traceless part of the mean of P."""
    if isinstance(edge_or_B, EdgeData):
        A11, A12, A22 = edge_or_B.A11, edge_or_B.A12, edge_or_B.A22
        zeta = edge_or_B.zeta
    else:
        A11, A12, A22 = (v.real for v in _averages(edge_or_B))
    return np.array([[A12 - zeta * A11 / 2.0, -zeta * A12 + A22],
                     [-A11, -A12 + zeta * A11 / 2.0]])


def discriminant(edge_or_B, zeta=None, delta=0.0):
    """d(delta) = -delta A11 zeta + delta^2 (A11 A22 - A12^2)."""
    if isinstance(edge_or_B, EdgeData):
        A11, A12, A22 = edge_or_B.A11, edge_or_B.A12, edge_or_B.A22
        zeta = edge_or_B.zeta
    else:
        A11, A12, A22 = (v.real for v in _averages(edge_or_B))
    return -delta * A11 * zeta + delta ** 2 * (A11 * A22 - A12 ** 2)


def discriminant_crosscheck(edge: EdgeData, delta):
    """|d(delta) - det(c0 - delta c1) - delta^2 zeta^2 A11^2 / 4|, which is
    zero in exact arithmetic."""
    c0 = np.array([[0.0, edge.zeta], [0.0, 0.0]])
    c1 = averaged_matrix(edge)
    det = np.linalg.det(c0 - delta * c1)
    d_val = discriminant(edge, delta=delta)
    return abs(d_val - det - 0.25 * delta ** 2 * edge.zeta ** 2 * edge.A11 ** 2)


def poly_bounds_check(edge: EdgeData, kappa):
    """Measured vs claimed bounds for the average quadratic form:
    when ||B||_{k0} zeta^{kappa/2} <= 1/4,
    0 < A11 / (A11 A22 - A12^2) <= zeta^{-kappa}/2 and
    A11 A22 - A12^2 >= 8 zeta^{2 kappa}."""
    if not 0 < kappa < 0.25:
        raise QpslError("kappa must lie in (0, 1/4)")
    z = abs(edge.zeta)
    gram = edge.A11 * edge.A22 - edge.A12 ** 2
    pre = edge.b_norm_k0 * z ** (kappa / 2.0) <= 0.25
    out = {
        "precondition_met": bool(pre),
        "gram": gram,
        "ratio": edge.A11 / gram if gram > 0 else math.inf,
        "ratio_bound": 0.5 * z ** (-kappa) if z > 0 else math.inf,
        "gram_bound": 8.0 * z ** (2 * kappa),
        "a11": edge.A11,
        "a11_lower": (2 * edge.b_norm_k0) ** (-2),
    }
    out["ratio_ok"] = bool(0 < out["ratio"] <= out["ratio_bound"]) if gram > 0 else False
    out["gram_ok"] = bool(gram >= out["gram_bound"])
    out["degenerate"] = gram <= 1e-15 * max(edge.A11 * edge.A22, 1.0)
    return out


@dataclass
class ProbeResult:
    delta: float
    probe_energy: float
    d_delta: float
    verdict: str                  # 'hyperbolic' | 'not' | 'inconclusive'
    averaged_prediction: str
    rotation_shift: float = None
    conjugation_residual: float = None

    @property
    def hyperbolic(self):
        return self.verdict == "hyperbolic"


def probe_gap_edge(edge: EdgeData, V, alpha, E_edge, delta, horizon=None,
                   grid=192, check_conjugation=True, rotation_iters=100_000,
                   seed=0):
    """Probe the energy delta inward from the edge (direction from sign(zeta):
    a right edge probes downward) and decide hyperbolicity of the cocycle.

    The authoritative verdict comes from :func:`uh_test` on the full cocycle;
    the sign of d(delta) (through the constant part e^{c0 - delta c1}) is the
    averaged one-step prediction recorded alongside, together with the
    rotation shift rho(probe) - rho(edge).
    """
    if not 0 < delta < 1:
        raise QpslError("delta must lie in (0,1)")
    alpha = np.atleast_1d(np.asarray(alpha, float))
    direction = -math.copysign(1.0, edge.zeta) if edge.zeta != 0 else -1.0
    E_probe = E_edge + direction * delta
    d_val = discriminant(edge, delta=delta)
    pred = "hyperbolic" if d_val < 0 else ("not" if d_val > 0 else "inconclusive")

    coc = schrodinger_cocycle(V, E_probe, alpha=alpha)
    if coc.kind == "constant":
        rep = uh_test(coc)
        verdict = rep.verdict
    else:
        if horizon is None:
            # the reduced constant's per-step expansion is sqrt(-d) when the
            # discriminant is negative; direction coherence needs a window
            # several times longer
            rate = math.sqrt(abs(d_val)) if d_val != 0 else 1e-6
            horizon = int(min(20_000, max(256, 12.0 / max(rate, 1e-6))))
        rep = uh_test(coc, horizon=horizon, grid=grid)
        verdict = rep.verdict
        if verdict == "inconclusive":
            # Schrodinger fallback: an unlocked rotation number certifies a
            # spectrum-side probe (gaps of unchecked huge labels are far
            # below the resolution used here)
            iters = 400_000
            rr = rotation_number(coc, iters=iters, phase_samples=2, seed=seed)
            cands = [(k,) + (0,) * (alpha.size - 1) for k in range(-40, 41)]
            lock_dist = min(
                dist_to_integers(2 * rr.rho - float(np.dot(n, alpha)))
                for n in cands)
            if lock_dist > 20.0 / iters:
                verdict = "not"

    residual = None
    if check_conjugation:
        # B(.+alpha)^{-1} S_{E_edge - s} B = C - s P with s signed into the gap
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0, 4 * math.pi, size=(8, alpha.size))
        step = 2 * math.pi * alpha
        P = perturbation_matrix(edge.B, edge.zeta)
        C = np.array([[1.0, edge.zeta], [0.0, 1.0]])
        s = -direction * delta
        coc_edge = schrodinger_cocycle(V, E_edge - s, alpha=alpha)
        S = coc_edge.matrix_batch(pts)
        Bf = edge.B.sample(pts + step[None, :])
        Bb = edge.B.sample(pts)
        got = np.einsum("mij,mjk,mkl->mil", np.linalg.inv(Bf), S, Bb)
        want = C[None, :, :] - s * P.sample(pts)
        residual = float(np.min([np.max(np.abs(got - want)),
                                 np.max(np.abs(got + want))]))

    rotation_shift = None
    if rotation_iters and coc.kind != "constant":
        # the phases rotation_number draws, at both energies in one count
        thetas = np.random.default_rng(seed).uniform(0, 2 * math.pi, size=(2, alpha.size))
        per = oscillation_rho(V, alpha, [E_probe, E_edge], thetas, rotation_iters)
        rotation_shift = float(np.mean(per[0]) - np.mean(per[1]))

    return ProbeResult(delta=delta, probe_energy=E_probe, d_delta=d_val,
                       verdict=verdict, averaged_prediction=pred,
                       rotation_shift=rotation_shift,
                       conjugation_residual=residual)


def bracket_gap(edge: EdgeData, V=None, alpha=None, probe=True, **probe_kw):
    """Probe scales delta_2 = |zeta|^{11/10} (inside the gap) and
    delta_1 = |zeta|^{9/10} (beyond it); with ``probe`` the verdicts are
    evaluated on the actual cocycle."""
    z = abs(edge.zeta)
    if z == 0:
        raise QpslError("zeta = 0: collapsed gap, nothing to bracket")
    lower = z ** 1.1
    upper = z ** 0.9
    out = {"zeta": edge.zeta, "lower": lower, "upper": upper,
           "degenerate": z >= 1.0, "checks": {}}
    if z >= 1.0:
        return out
    if probe:
        alpha = edge.alpha if alpha is None else alpha
        p2 = probe_gap_edge(edge, V, alpha, edge.energy, lower, **probe_kw)
        p1 = probe_gap_edge(edge, V, alpha, edge.energy, upper, **probe_kw)
        out["checks"] = {
            "delta2_inside_gap": p2.verdict == "hyperbolic",
            "delta1_beyond_gap": p1.verdict != "hyperbolic",
            "delta2": p2, "delta1": p1,
        }
    return out
