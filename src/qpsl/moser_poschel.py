"""Gap-edge probing: perturb the energy off a reduced edge and decide
hyperbolicity by one averaging step through B.

With B reducing the edge cocycle to C = [[1, zeta], [0, 1]], lowering the
energy by s conjugates S_{E-s} to C - s P(theta) where P is an explicit
quadratic expression in the entries of B.  A probe lies at s = sign(zeta)
delta, inside the gap.  The discriminant of the averaged constant's
traceless part at E - delta,

    d(delta) = -delta [B11^2] zeta + delta^2 ([B11^2][B12^2] - [B11 B12]^2),

is negative at small delta when zeta > 0.  A probe's own is d(s): at a left
edge (zeta < 0) d(-delta), negative at small delta too.  The verdicts come
from Moser and Poschel's averaging step (Comment. Math. Helv. 59, 1984), made
a-posteriori (:func:`averaging_step`, :func:`certify_probe`).  The probes
delta_2 = |zeta|^{11/10} (inside) and delta_1 = |zeta|^{9/10} (beyond)
bracket the gap length.  All averages [.] are the zero Fourier modes of
entry products, computed exactly from the series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import mpmath
import numpy as np

from .cocycle import conjugacy_residual, uh_test
from .errors import QpslError
from .fourier import FourierSeries, key_grid, multiply, shift_phases
from .kam import ReducibilityResult

__all__ = [
    "EdgeData", "ProbeResult",
    "edge_data_from_reduction", "perturbation_matrix", "averaged_matrix",
    "discriminant", "poly_bounds_check", "AveragingStep", "averaging_step",
    "certify_probe", "uh_probe", "probe_gap_edge", "bracket_gap", "d_tau_constant",
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
class AveragingStep:
    """One averaging step H = I + s Y through B, for every probe scale s:
    Y(. + alpha) - Y = -(P - [P]).  Then (C - s P) H - H(. + alpha)(C - s [P])
    = s Q1 + s^2 Q2, Q1 = N Y - Y(. + alpha) N (C = I + N) and
    Q2 = Y(. + alpha) [P] - P Y, so H(. + alpha)^{-1} (C - s P) H is C - s [P]
    plus R with sup |R| <= (|s| q1 + s^2 q2) / (1 - |s| y), each mass the sum
    of the coefficients' operator norms."""

    P: FourierSeries
    Y: FourierSeries
    mean: np.ndarray      # [P], real
    y_mass: float
    q1_mass: float
    q2_mass: float


def averaging_step(edge: EdgeData):
    """The :class:`AveragingStep` of the edge, mode by mode over the modes
    of P; on the doubled torus mode m stands for m/2, so the divisors are
    e^{i pi <m, alpha>} - 1."""
    P = perturbation_matrix(edge.B, edge.zeta)
    mean = P.mean().real
    moving = key_grid(P.K, P.d).any(axis=-1)
    phases = shift_phases(P.K, P.d, edge.alpha * (0.5 if P.halved else 1.0))
    divisor = np.where(moving, phases - 1.0, 1.0)[..., None, None]
    Y = P.map_values(lambda b: -b / divisor).restrict(moving)
    Y_next = Y.shift(edge.alpha)
    N = np.array([[0.0, edge.zeta], [0.0, 0.0]])
    PY = multiply(P, Y)
    K = max(PY.K, Y.K)
    at = lambda F, f: F.map_values(f).padded(K)
    mass = lambda block: FourierSeries.from_block(P.d, block, P.halved, "matrix").coeff_mass()
    return AveragingStep(P=P, Y=Y, mean=mean, y_mass=Y.coeff_mass(),
                         q1_mass=mass(at(Y, lambda b: N @ b) - at(Y_next, lambda b: b @ N)),
                         q2_mass=mass(at(Y_next, lambda b: b @ mean) - PY.padded(K)))


def certify_probe(step: AveragingStep, zeta, s, residual):
    """(verdict, margin, kappa sup R) of the probe at E - s from the constant
    M = C - s [P], with kappa the condition number of M's real eigenframe T.
    B's residual r, at most 2 r in operator norm, adds
    2 r (1 + |s| y) / (1 - |s| y) to sup R; r is sampled at the probe's
    points, not bounded over the torus, so that one term is a measurement.

    A hyperbolic M (eigenvalues lam, mu) is "hyperbolic" when kappa sup R <
    (|lam| - |mu|) / 2: in the frame T the cone |y| <= |x| then maps strictly
    into itself, a cone-field criterion (Yoccoz 2004).  An elliptic
    M = T (r R_phi) T^{-1} is "not" when beta = arcsin(kappa sup R / r) <
    min(phi, pi - phi): each direction turns by phi +- beta per step, so the
    reduced rotation number is off the lock of this gap's label, and the
    energy lies outside this gap.  That "not" is narrower than
    :func:`uh_test`'s: it does not exclude a different, smaller gap.  The
    margin is the ratio of the two sides; at most 1 is "inconclusive".
    """
    h = abs(s) * step.y_mass
    if h >= 1.0:
        return "inconclusive", 0.0, math.inf
    sup_r = (abs(s) * step.q1_mass + s * s * step.q2_mass
             + 2.0 * residual * (1.0 + h)) / (1.0 - h)
    M = np.array([[1.0, zeta], [0.0, 1.0]]) - s * step.mean
    w, T = np.linalg.eig(M)
    if np.iscomplexobj(w) and w[0].imag != 0:
        # T^{-1} M T = |w| R_{-phi} in the frame T = (Re v, Im v)
        bound = np.linalg.cond(np.stack([T[:, 0].real, T[:, 0].imag], axis=1)) * sup_r
        phi = abs(float(np.angle(w[0])))
        verdict, side = "not", min(phi, math.pi - phi)
        other = math.asin(min(1.0, bound / abs(w[0])))
    else:
        bound = np.linalg.cond(T) * sup_r
        verdict, side, other = "hyperbolic", abs(abs(w[0]) - abs(w[1])) / 2.0, bound
    margin = side / other if other > 0 else math.inf
    return (verdict if margin > 1.0 else "inconclusive"), float(margin), float(bound)


@dataclass
class ProbeResult:
    verdict: str                  # 'hyperbolic' | 'not' | 'inconclusive'
    d_delta: float
    conjugation_residual: float
    margin: float                 # the certificate's; above 1 it decided
    # 'certificate' | 'uh_test': the certificate's "not" says outside this
    # gap (the lock of label n~), uh_test's not uniformly hyperbolic
    decided_by: str


def uh_probe(edge: EdgeData, V, delta):
    """:func:`uh_test`'s verdict at the probe energy delta inward from the
    edge, on the full cocycle (V, edge.alpha) on a 192-point grid."""
    # the reduced constant's per-step expansion is about sqrt|d(s)| at the
    # probe's signed step s; direction coherence needs a window several times
    # longer (uh_test decides the free cocycle, V None, by its trace)
    s = math.copysign(delta, edge.zeta or 1.0)
    rate = math.sqrt(abs(discriminant(edge, s)))
    horizon = int(min(20_000, max(256, 12.0 / max(rate, 1e-6))))
    return uh_test(V, edge.alpha, edge.energy - s, horizon=horizon, grid=192).verdict


def probe_gap_edge(edge: EdgeData, V, delta, step=None):
    """Probe the energy delta inward from the edge (a right edge, zeta > 0,
    probes downward) and decide hyperbolicity of the cocycle (V, edge.alpha).

    The verdict is :func:`certify_probe`'s, from the edge's averaging
    ``step`` (made here when not given) and the conjugation residual of B at
    8 seeded random points; its "not" means outside this gap.  When the
    certificate is inconclusive, :func:`uh_probe` decides, whose "not" means
    not uniformly hyperbolic; an inconclusive test stays "inconclusive".
    """
    if not 0 < delta < 1:
        raise QpslError("delta must lie in (0,1)")
    step = averaging_step(edge) if step is None else step
    # B(.+alpha)^{-1} S_{E - s} B = C - s P at the edge E, s signed into the gap
    s = math.copysign(delta, edge.zeta or 1.0)
    pts = np.random.default_rng(0).uniform(0, 4 * math.pi, size=(8, edge.alpha.size))
    C = np.array([[1.0, edge.zeta], [0.0, 1.0]])
    residual = conjugacy_residual(V, edge.alpha, edge.energy - s, edge.B,
                                  C[None, :, :] - s * step.P.sample(pts), pts)
    verdict, margin, _ = certify_probe(step, edge.zeta, s, residual)
    decided_by = "certificate"
    if verdict == "inconclusive":
        verdict, decided_by = uh_probe(edge, V, delta), "uh_test"
    return ProbeResult(verdict=verdict, d_delta=discriminant(edge, s),
                       conjugation_residual=residual, margin=margin, decided_by=decided_by)


def bracket_gap(edge: EdgeData, V, probe=True):
    """The record ``qpsl edge-probe`` writes for the edge: zeta, the bracket
    [delta_2, delta_1] = [|zeta|^{11/10}, |zeta|^{9/10}] of the gap length,
    ``degenerate`` (|zeta| >= 1, where nothing is probed), the averages and
    the edge's structure checks.  With ``probe`` the two scales are probed
    on the cocycle (V, edge.alpha) from edge.energy, through one averaging
    step of the edge, each to {verdict, d, residual, margin, decided_by}:
    ``delta2`` must read inside the gap (hyperbolic) and ``delta1`` beyond
    it, and ``bracket_consistent`` says whether both do."""
    z = abs(edge.zeta)
    if z == 0:
        raise QpslError("zeta = 0: collapsed gap, nothing to bracket")
    out = {"zeta": edge.zeta, "bracket": [z ** 1.1, z ** 0.9], "degenerate": z >= 1.0,
           "averages": {"A11": edge.A11, "A12": edge.A12, "A22": edge.A22},
           "edge_checks": edge.checks}
    if probe and z < 1.0:
        step = averaging_step(edge)
        for name, delta in zip(("delta2", "delta1"), out["bracket"]):
            p = probe_gap_edge(edge, V, delta, step)
            out[name] = {"verdict": p.verdict, "d": p.d_delta, "margin": p.margin,
                         "decided_by": p.decided_by, "residual": p.conjugation_residual}
        out["bracket_consistent"] = (out["delta2"]["verdict"] == "hyperbolic"
                                     and out["delta1"]["verdict"] != "hyperbolic")
    return out
