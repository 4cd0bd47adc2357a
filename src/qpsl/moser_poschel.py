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

from .cocycle import conjugacy_residual, uh_test
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
    b_norm_k0: float
    checks: dict = field(default_factory=dict)


def edge_data_from_reduction(result: ReducibilityResult, alpha):
    """Assemble the probe data from a reducibility run, with k0 the run's
    (at least 1)."""
    B = result.B
    k0 = max(result.k0, 1)
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
                    A11=A11, A12=A12, A22=A22, k0=k0, b_norm_k0=b_norm,
                    checks=checks)


def perturbation_matrix(B: FourierSeries, zeta):
    """P = [[B11 B12 - zeta B11^2, -zeta B11 B12 + B12^2],
           [-B11^2, -B11 B12]] as a matrix series.

    Satisfies B(.+alpha)^{-1} S_{E-delta} B(.) = C - delta P(.) when (B, zeta)
    reduce the edge cocycle, and trace P = -zeta B11^2 pointwise.
    """
    B11 = _entry(B, 0, 0)
    B12 = _entry(B, 0, 1)
    sq11, cross, sq12 = multiply(B11, B11), multiply(B11, B12), multiply(B12, B12)
    K = max(sq11.K, cross.K, sq12.K)
    a, b, c = sq11.padded(K), cross.padded(K), sq12.padded(K)
    block = np.stack([b - zeta * a, -zeta * b + c, -a, -b], axis=-1)
    return FourierSeries.from_block(B.d, block.reshape(a.shape + (2, 2)),
                                    halved=B.halved, kind="matrix")


def averaged_matrix(edge: EdgeData):
    """c1 = [[A12 - zeta A11/2, -zeta A12 + A22], [-A11, -A12 + zeta A11/2]]
    (trace zero exactly): the traceless part of the mean of P."""
    A11, A12, A22, zeta = edge.A11, edge.A12, edge.A22, edge.zeta
    return np.array([[A12 - zeta * A11 / 2.0, -zeta * A12 + A22],
                     [-A11, -A12 + zeta * A11 / 2.0]])


def discriminant(edge: EdgeData, delta):
    """d(delta) = -delta A11 zeta + delta^2 (A11 A22 - A12^2)."""
    A11, A12, A22 = edge.A11, edge.A12, edge.A22
    return -delta * A11 * edge.zeta + delta ** 2 * (A11 * A22 - A12 ** 2)


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
    verdict: str                  # 'hyperbolic' | 'not' | 'inconclusive'
    d_delta: float
    conjugation_residual: float


def probe_gap_edge(edge: EdgeData, V, delta):
    """Probe the energy delta inward from the edge (direction from sign(zeta):
    a right edge probes downward) and decide hyperbolicity of the cocycle
    (V, edge.alpha).

    The verdict is :func:`uh_test`'s on the full cocycle on a 192-point
    grid, with a horizon set by d(delta), the discriminant, whose sign is
    the averaged one-step prediction; an inconclusive test stays
    "inconclusive".  The conjugation residual of B is taken at 8 seeded
    random points.
    """
    if not 0 < delta < 1:
        raise QpslError("delta must lie in (0,1)")
    alpha = edge.alpha
    direction = -math.copysign(1.0, edge.zeta) if edge.zeta != 0 else -1.0
    E_probe = edge.energy + direction * delta
    d_val = discriminant(edge, delta)

    # the reduced constant's per-step expansion is sqrt(-d) when the
    # discriminant is negative; direction coherence needs a window
    # several times longer (uh_test decides the free cocycle, V None,
    # by its trace)
    rate = math.sqrt(abs(d_val)) if d_val != 0 else 1e-6
    horizon = int(min(20_000, max(256, 12.0 / max(rate, 1e-6))))
    verdict = uh_test(V, alpha, E_probe, horizon=horizon, grid=192).verdict

    # B(.+alpha)^{-1} S_{E - s} B = C - s P at the edge E, s signed into the gap
    rng = np.random.default_rng(0)
    pts = rng.uniform(0, 4 * math.pi, size=(8, alpha.size))
    P = perturbation_matrix(edge.B, edge.zeta)
    C = np.array([[1.0, edge.zeta], [0.0, 1.0]])
    s = -direction * delta
    residual = conjugacy_residual(V, alpha, edge.energy - s, edge.B,
                                  C[None, :, :] - s * P.sample(pts), pts)
    return ProbeResult(verdict=verdict, d_delta=d_val, conjugation_residual=residual)


def bracket_gap(edge: EdgeData, V, probe=True):
    """The record ``qpsl edge-probe`` writes for the edge: zeta, the bracket
    [delta_2, delta_1] = [|zeta|^{11/10}, |zeta|^{9/10}] of the gap length,
    ``degenerate`` (|zeta| >= 1, where nothing is probed), the averages and
    the edge's structure checks.  With ``probe`` the two scales are probed
    on the cocycle (V, edge.alpha) from edge.energy: ``delta2`` {verdict, d,
    residual} must read inside the gap (hyperbolic) and ``delta1`` {verdict,
    d} beyond it, and ``bracket_consistent`` says whether both do."""
    z = abs(edge.zeta)
    if z == 0:
        raise QpslError("zeta = 0: collapsed gap, nothing to bracket")
    out = {"zeta": edge.zeta, "bracket": [z ** 1.1, z ** 0.9], "degenerate": z >= 1.0,
           "averages": {"A11": edge.A11, "A12": edge.A12, "A22": edge.A22},
           "edge_checks": edge.checks}
    if probe and z < 1.0:
        delta2, delta1 = out["bracket"]
        p2, p1 = probe_gap_edge(edge, V, delta2), probe_gap_edge(edge, V, delta1)
        out["delta2"] = {"verdict": p2.verdict, "d": p2.d_delta,
                         "residual": p2.conjugation_residual}
        out["delta1"] = {"verdict": p1.verdict, "d": p1.d_delta}
        out["bracket_consistent"] = p2.verdict == "hyperbolic" and p1.verdict != "hyperbolic"
    return out
