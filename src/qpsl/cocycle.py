"""SL(2,R) / SU(1,1) matrix utilities and Schrodinger cocycle dynamics.

The one cocycle of the package is given by (V, alpha, E): the torus rotation
theta -> theta + 2*pi*alpha (alpha in cycles) skew-extended by
S_E(theta) = [[E - V(theta), -1], [1, 0]] acting on R^2, with V None (the
free operator) or a Potential.  Each function takes the three directly.
Rotation numbers are reported in cycles, so gap locking reads
2*rho = <n, alpha> mod 1.

SU(1,1) is the isomorphic image of SL(2,R) under the unitary

    M = (1 + i)^(-1) [[1, -i], [1, i]],

and su(1,1) elements are parametrized as [[i*a, b], [conj(b), -i*a]] with a
real and b complex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    NonConvergence,
    NotElliptic,
    NotUnipotent,
    QpslError,
    SingularConjugator,
)
from .fourier import Potential, grid_points

__all__ = [
    "M_CONJ", "M_CONJ_INV", "mat_product", "pair_product", "diag_pair_product",
    "to_su11", "from_su11", "check_su11",
    "su11_exp", "su11_exp_pair",
    "parabolic_normalize", "diagonalize_su11", "rotation_matrix",
    "conjugacy_residual",
    "potential_values", "orbit_potential", "pivot_negatives", "random_phases",
    "oscillation_rho", "rotation_number",
    "UhReport", "uh_test",
]

M_CONJ = np.array([[1.0, -1.0j], [1.0, 1.0j]], complex) / (1.0 + 1.0j)
M_CONJ_INV = np.linalg.inv(M_CONJ)

_I2 = np.eye(2)


def rotation_matrix(phi):
    """R_phi: rotation by the angle 2*pi*phi (phi in cycles)."""
    c, s = math.cos(2 * math.pi * phi), math.sin(2 * math.pi * phi)
    return np.array([[c, -s], [s, c]])


def to_su11(A):
    """M A M^{-1}; maps SL(2,R) onto SU(1,1)."""
    return M_CONJ @ np.asarray(A, complex) @ M_CONJ_INV


def from_su11(B):
    """M^{-1} B M; real for genuine SU(1,1) input."""
    return M_CONJ_INV @ np.asarray(B, complex) @ M_CONJ


def check_su11(A, tol=1e-10):
    """(ok, err): the largest SU(1,1) membership defect over a (..., 2, 2) stack."""
    A = np.asarray(A, complex)
    err = np.maximum(np.abs(A[..., 1, 1] - np.conj(A[..., 0, 0])),
                     np.abs(A[..., 1, 0] - np.conj(A[..., 0, 1])))
    err = np.maximum(err, np.abs(np.abs(A[..., 0, 0]) ** 2 - np.abs(A[..., 0, 1]) ** 2 - 1.0))
    err = float(np.max(err))
    return err <= tol, err


def su11_element(a, b):
    """su(1,1) element [[i a, b], [conj b, -i a]], a real, b complex; over
    arrays a and b, a stack of shape broadcast(a, b) + (2, 2)."""
    out = np.empty(np.broadcast(a, b).shape + (2, 2), complex)
    out[..., 0, 0] = 1j * a
    out[..., 1, 1] = -1j * a
    out[..., 0, 1] = b
    out[..., 1, 0] = np.conj(b)
    return out


def su11_exp_pair(a, b):
    """Row 0 (A, B) of exp [[i a, b], [conj b, -i a]], elementwise over a (real)
    and b (complex); row 1 is (conj B, conj A).  With lam = sqrt(|b|^2 - a^2)
    (principal branch; imaginary lam turns the hyperbolic functions
    trigonometric), A = cosh lam + i a sinhc and B = b sinhc, where
    sinhc = sinh(lam)/lam."""
    disc = (np.abs(b) ** 2 - a * a).astype(complex)
    lam = np.sqrt(disc)
    small = np.abs(lam) < 1e-8
    lam_safe = np.where(small, 1.0, lam)
    ch, sc = np.cosh(lam_safe), np.sinh(lam_safe) / lam_safe
    t = disc[small]  # series of cosh and sinhc where lam is tiny
    ch[small], sc[small] = 1.0 + t / 2 + t * t / 24, 1.0 + t / 6 + t * t / 120
    return ch + 1j * a * sc, b * sc


def su11_exp(C):
    """Closed-form exponential of C = [[i a, b], [conj b, -i a]] over a
    (..., 2, 2) stack: :func:`su11_exp_pair` of row 0, completed to
    [[A, B], [conj B, conj A]]."""
    C = np.asarray(C, complex)
    shape = C.shape
    C = C.reshape(-1, 2, 2)  # one matrix runs as a stack of one, bit for bit
    A, B = su11_exp_pair(C[:, 0, 0].imag, C[:, 0, 1])
    out = np.empty_like(C)
    out[:, 0, 0], out[:, 0, 1] = A, B
    out[:, 1, 0], out[:, 1, 1] = np.conj(B), np.conj(A)
    return out.reshape(shape)


def _su11_log_pair(A, B):
    """(a, b) with exp [[i a, b], [conj b, -i a]] the SU(1,1) matrix of row 0
    (A, B), elementwise, without a membership check: the inverse of
    :func:`su11_exp_pair`.  cosh(lam) is the real part of A; elliptic
    branches use lam = i*arccos, hyperbolic branches arccosh.  Raises when a
    rotation angle reaches pi - 1e-9 (the log is not single-valued at pi)."""
    ch = A.real
    elliptic = ch < 1.0
    theta = np.arccos(np.clip(ch, -1.0, 1.0))
    if np.any(elliptic & (theta >= math.pi - 1e-9)):
        raise QpslError("rotation angle outside log injectivity radius")
    lam_h = np.arccosh(np.maximum(ch, 1.0))
    near = np.abs(ch - 1.0) < 1e-12
    sc_e = np.where(theta > 1e-8, np.sin(theta) / np.where(theta > 1e-8, theta, 1.0),
                    1.0 - theta * theta / 6.0)
    sc_h = np.where(lam_h > 1e-8, np.sinh(lam_h) / np.where(lam_h > 1e-8, lam_h, 1.0),
                    1.0 + lam_h * lam_h / 6.0)
    sc = np.where(near, 1.0, np.where(elliptic, sc_e, sc_h))
    return A.imag / sc, B / sc


@dataclass
class ParabolicForm:
    phi: float      # rotation parameter, cycles
    zeta: float     # signed off-diagonal entry of the normal form
    residual: float


def parabolic_normalize(A, tol=1e-8):
    """Rotation-conjugate the unipotent M^{-1} A M into [[1, zeta], [0, 1]].

    A must be SU(1,1) with spectrum {1} (real part of the diagonal equal to 1
    within tol).  The nilpotent part of M^{-1} A M has Frobenius norm 2|b|,
    and rotations preserve it, so |zeta| = 2|b| = 2|Im a|; the sign follows
    sign(Im a).  Returns phi (cycles), zeta and the conjugation residual.
    """
    A = np.asarray(A, complex)
    ok, err = check_su11(A, tol=1e-6)
    if not ok:
        raise QpslError(f"matrix is not SU(1,1) (residual {err:.3e})")
    a = A[0, 0]
    if abs(a.real - 1.0) > tol:
        raise NotUnipotent(f"Re(a) = {a.real:.6g} is not 1 within {tol:.1e}")
    G = from_su11(A)
    if np.max(np.abs(G.imag)) > 1e-9:
        raise QpslError("conjugated matrix is not real")
    G = G.real
    N = G - _I2
    scale = float(np.linalg.norm(N))
    if scale < 1e-14:
        return ParabolicForm(phi=0.0, zeta=0.0, residual=scale)
    if abs(N[0, 0]) + abs(N[0, 1]) >= abs(N[1, 0]) + abs(N[1, 1]):
        k = np.array([N[0, 1], -N[0, 0]])
    else:
        k = np.array([N[1, 1], -N[1, 0]])
    k = k / np.linalg.norm(k)
    kperp = np.array([-k[1], k[0]])
    zeta = float(k @ (N @ kperp))
    phi = math.atan2(k[1], k[0]) / (2 * math.pi) % 1.0
    R = rotation_matrix(phi)
    residual = float(np.max(np.abs(R.T @ G @ R - np.array([[1.0, zeta], [0.0, 1.0]]))))
    return ParabolicForm(phi=phi, zeta=zeta, residual=residual)


def diagonalize_su11(A, tol=1e-9):
    """P in SU(1,1) with P A P^{-1} = diag(e^{i rho}, e^{-i rho}), rho in radians.

    Requires A elliptic (|Re a| < 1).  Returns (P, rho) where rho in (0, 2*pi)
    is the angle of the eigenvalue whose eigenvector has positive J-norm.
    """
    A = np.asarray(A, complex)
    re = A[0, 0].real
    if abs(re) >= 1.0 - 1e-12:
        raise NotElliptic(f"Re(a) = {re:.6g}, matrix is not elliptic")
    w, vecs = np.linalg.eig(A)
    for k in (0, 1):
        v = vecs[:, k]
        jn = abs(v[0]) ** 2 - abs(v[1]) ** 2
        if jn > tol * 1e-3:
            u = v / math.sqrt(jn)
            p, q = u[0], np.conj(u[1])
            Pinv = np.array([[p, q], [np.conj(q), np.conj(p)]], complex)
            P = np.array([[np.conj(p), -q], [-np.conj(q), p]], complex)
            rho = float(np.angle(w[k])) % (2 * math.pi)
            D = P @ A @ Pinv
            res = float(np.max(np.abs(D - np.diag([np.exp(1j * rho), np.exp(-1j * rho)]))))
            if res > 1e-8 * max(1.0, float(np.max(np.abs(A)))):
                raise NotElliptic(f"diagonalization residual {res:.3e}")
            return P, rho
    raise NotElliptic("no eigenvector with positive J-norm (parabolic or hyperbolic)")


def _adjugate(M):
    """adj M = [[d, -b], [-c, a]] over the last two axes.  For M = e^{Y} in
    SU(1,1) this is e^{-Y}, equal to su11_exp(-Y) bit for bit."""
    out = np.empty_like(M)
    out[..., 0, 0] = M[..., 1, 1]
    out[..., 1, 1] = M[..., 0, 0]
    out[..., 0, 1] = -M[..., 0, 1]
    out[..., 1, 0] = -M[..., 1, 0]
    return out


def _times(a, b):
    """(ar + i ai)(br + i bi) as (re, im) in the real arithmetic of
    :func:`mat_product`; ai = bi = None for real factors."""
    (ar, ai), (br, bi) = a, b
    if ai is None:
        return ar * br, None
    re, im = ar * br, ar * bi
    re -= ai * bi
    im += ai * br
    return re, im


def _entry_products(entry, n, rows, out):
    """Add to out[:, r, l] the entry (rows[r], l) of F_0 ... F_{n-1}, given
    entry(f, j, k) = (re, im) of F_f[j, k], in :func:`mat_product`'s order."""
    for r, i in enumerate(rows):
        # the prefixes F_0[i, j] ... F_{n-2}[., k], in C order of (j, ..., k)
        terms = [entry(0, i, j) for j in (0, 1)]
        for f in range(1, n - 1):
            terms = [_times(t, entry(f, s % 2, k)) for s, t in enumerate(terms) for k in (0, 1)]
        for l in (0, 1):
            for s, t in enumerate(terms):
                re, im = _times(t, entry(n - 1, s % 2, l))
                out.real[:, r, l] += re
                if im is not None:
                    out.imag[:, r, l] += im
    return out


def mat_product(*factors):
    """F_1 F_2 ... F_n per entry over a stack; factors (m, 2, 2) or (2, 2),
    result (m, 2, 2).  Entry (i, l) adds to 0, over (j, k, ...) in C order,
    the left-associated products F_1[i, j] F_2[j, k] ..., complex ones in
    real arithmetic: numpy's Einstein summation order, which it equals bit
    for bit (``@`` and numpy's complex ``*`` round differently)."""
    mats = [np.asarray(F, np.result_type(*factors)) for F in factors]
    cplx = np.iscomplexobj(mats[0])
    entry = lambda f, i, j: (mats[f][..., i, j].real, mats[f][..., i, j].imag if cplx else None)
    m = max((len(M) for M in mats if M.ndim == 3), default=1)
    return _entry_products(entry, len(mats), (0, 1), np.zeros((m, 2, 2), mats[0].dtype))


def pair_product(*pairs):
    """Row 0 (A, B) of the product of SU(1,1) stacks, each given by its row 0
    (A, B), row 1 being (conj B, conj A): row 0 of :func:`mat_product` of the
    full stacks, bit for bit but for the sign of an exact zero."""

    def entry(f, j, k):
        v = pairs[f][(j + k) % 2]
        return v.real, -v.imag if j else v.imag

    out = _entry_products(entry, len(pairs), (0,),
                          np.zeros((len(pairs[0][0]), 1, 2), complex))
    return out[:, 0, 0], out[:, 0, 1]


def diag_pair_product(c, pair, d):
    """Row 0 (c A d[0], c B d[1]) of diag(c, .) M diag(d[0], d[1]) for M of row
    0 ``pair``: row 0 of :func:`mat_product` of the three, bit for bit, as the
    terms it adds besides these are exact zeros."""
    out = np.zeros((len(pair[0]), 1, 2), complex)
    for l in (0, 1):
        re, im = _times(_times((c.real, c.imag), (pair[l].real, pair[l].imag)),
                        (d[l].real, d[l].imag))
        out.real[:, 0, l] += re
        out.imag[:, 0, l] += im
    return out[:, 0, 0], out[:, 0, 1]


def conjugacy_residual(V, alpha, E, B, want, pts):
    """The residual of the conjugacy B(theta + 2 pi alpha)^{-1} S_E(theta)
    B(theta) = want at the points ``pts`` (shape (m, d)): the sup norm of the
    difference over them, or of the sum when that is smaller (the PSL(2,R)
    sign).  B is a matrix FourierSeries, possibly on the doubled torus, and
    ``want`` one 2x2 matrix or one per point.  Raises SingularConjugator when
    |det B| < 1e-8 at one of 16 seeded random points of B's torus.
    """
    step = 2 * math.pi * np.atleast_1d(np.asarray(alpha, float))
    probes = np.random.default_rng(0).uniform(0, 2 * math.pi * (2.0 if B.halved else 1.0),
                                              size=(16, step.size))
    dets = np.abs(np.linalg.det(B.sample(probes)))
    if np.min(dets) < 1e-8:
        raise SingularConjugator(f"min |det B| = {np.min(dets):.3e} at probes")
    S = np.zeros((len(pts), 2, 2))
    S[:, 0, 0] = E - potential_values(V, pts)
    S[:, 0, 1] = -1.0
    S[:, 1, 0] = 1.0
    got = mat_product(np.linalg.inv(B.sample(pts + step)), S, B.sample(pts))
    return float(min(np.max(np.abs(got - want)), np.max(np.abs(got + want))))


# ---------------------------------------------------------------------------
# the Sturm pivot count shared by the IDS and the rotation number

_ORBIT_BLOCK = 4096        # sites per block of potential values along an orbit
_WALK_BLOCK = 64           # steps per block of cocycle values in a step-by-step walk
_PIVOT_BLOCK = 1 << 15     # pivots the kernel holds at once
_TINY = 1e-300


def potential_values(V, thetas):
    """V at angles of shape (..., d), in radians; V is None (zero) or a Potential."""
    thetas = np.asarray(thetas, float)
    if V is None:
        return np.zeros(thetas.shape[:-1])
    if not isinstance(V, Potential):
        raise QpslError(f"V must be None or a Potential, not {type(V).__name__}")
    return V.sample(thetas.reshape(-1, thetas.shape[-1])).reshape(thetas.shape[:-1])


def orbit_potential(V, alpha, thetas, sites):
    """V at theta_p + k 2 pi alpha, k = 0..sites-1, for the phases ``thetas``
    (shape (phases, d)), yielded in blocks of shape (_ORBIT_BLOCK, phases).
    The angles are the running sums th = th + 2 pi alpha, a block at a time
    by np.cumsum, which adds in the same order."""
    step = 2 * math.pi * np.atleast_1d(np.asarray(alpha, float))
    th = np.atleast_2d(np.asarray(thetas, float))
    for start in range(0, sites, _ORBIT_BLOCK):
        ang = np.empty((min(_ORBIT_BLOCK, sites - start),) + th.shape)
        ang[0] = th
        ang[1:] = step
        ang = np.cumsum(ang, axis=0)
        th = ang[-1] + step
        yield potential_values(V, ang)


def _schrodinger_walk(V, alpha, E, pts, ks, r_prev, r):
    """Run r <- x_k r - r_prev, x_k = E - V(pts + k 2 pi alpha), per entry over
    the steps ``ks``, V _WALK_BLOCK steps at a time; r has shape (..., points).
    The rows of S = A S are (r, r_prev), the columns of S = S A (r, -r_prev),
    and a step equals that matrix product bit for bit up to a zero's sign."""
    step = 2 * math.pi * np.atleast_1d(np.asarray(alpha, float))
    for start in range(0, len(ks), _WALK_BLOCK):
        kb = ks[start:start + _WALK_BLOCK]
        for x in E - potential_values(V, pts + kb[:, None, None] * step):
            r_prev, r = r, x * r - r_prev
    return r_prev, r


def pivot_negatives(energies, potential, r_init):
    """Number of negative pivots r_k = (E - V_k) - 1/r_{k-1}, per energy and phase.

    ``potential`` yields V_k in blocks of shape (sites, phases); the result has
    shape (energies, phases).  With r_init = inf the r_k are the LDL^T pivots
    of E - H for H = tridiag(1, V, 1) on the sites, so sites minus the count
    is the number of eigenvalues below E (Barth, Martin and Wilkinson 1967).
    With r_init = u_0 / u_{-1} they are the ratios u_{k+1} / u_k of the
    solution of u_{k+1} = (E - V_k) u_k - u_{k-1}, so the count is its number
    of sign changes.  An exact zero pivot becomes -1e-300 and counts as
    negative.

    Chunks of at most _PIVOT_BLOCK pivots have shape (sites, phases,
    energies): energies, many against few phases, are the contiguous axis, so
    E - V_k broadcasts with a long inner loop.  Each (energy, phase) column
    does the same operations in the same order in any layout.  A chunk is
    redone with the zero rule only when a zero pivot raises divide-by-zero;
    its counts are int32, which holds the _PIVOT_BLOCK rows of a chunk.
    """
    E = np.asarray(energies, float)
    r, neg = float(r_init), np.int64(0)
    with np.errstate(divide="raise", over="ignore"):
        for block in potential:
            rows = max(1, _PIVOT_BLOCK // (E.size * block.shape[1]))
            for i in range(0, block.shape[0], rows):
                v = block[i:i + rows, :, None]
                try:
                    piv = _pivots(E - v, r, zero_fix=False)
                except FloatingPointError:  # rare: redo the chunk with the zero rule
                    piv = _pivots(E - v, r, zero_fix=True)
                r = piv[-1]
                neg = neg + np.add.reduce(piv < 0, axis=0, dtype=np.int32)
    return np.transpose(neg)


def _pivots(piv, r, zero_fix):
    """Turn a chunk of E - V_k, shape (sites, phases, energies), into the
    pivots in place under the caller's np.errstate; r is a float or a row.

    A step is two ufunc calls on one contiguous row and no allocation:
    np.reciprocal into one scratch row (the same correctly rounded 1.0 / r,
    broadcast when r is a float), then an in-place subtraction.  The last
    row's reciprocal is taken too, so a zero anywhere in the chunk divides.
    """
    inv = np.empty(piv.shape[1:])
    for row in piv:
        row -= np.reciprocal(r, out=inv)
        r = row
        if zero_fix:
            r[r == 0] = -_TINY
    np.reciprocal(r, out=inv)
    return piv


def random_phases(count, d, seed):
    """``count`` phases uniform on the d-torus from the seeded generator, the
    one draw behind every phase average of the Sturm count."""
    return np.random.default_rng(seed).uniform(0, 2 * math.pi, size=(count, d))


def oscillation_rho(V, alpha, energies, iters, samples, seed):
    """Rotation numbers in [0, 1/2] per energy and phase, shape (energies,
    samples), at ``samples`` phases of :func:`random_phases`.

    The solution from (u_{-1}, u_0) = (0.3, 1) changes sign twice per full
    projective turn, so rho = (sign changes) / (2 iters): a branch-free lift
    (no angle unwrapping), exact up to the endpoint term O(1/iters).
    """
    alpha = np.atleast_1d(np.asarray(alpha, float))
    thetas = random_phases(samples, alpha.size, seed)
    neg = pivot_negatives(energies, orbit_potential(V, alpha, thetas, iters), 1 / 0.3)
    return neg / (2.0 * iters)


# ---------------------------------------------------------------------------
# rotation number


def rotation_number(V, alpha, E, iters=100_000, phase_samples=3, seed=0):
    """Fibered rotation number of the Schrodinger cocycle (V, alpha, E), in
    [0, 1/2]: the oscillation count of :func:`oscillation_rho` at
    ``phase_samples`` random phases, averaged."""
    return float(np.mean(oscillation_rho(V, alpha, [E], iters, phase_samples, seed)[0]))


# ---------------------------------------------------------------------------
# uniform hyperbolicity


@dataclass
class UhReport:
    verdict: str          # 'hyperbolic' | 'not' | 'inconclusive'
    margin: float
    sigma_min: float = None
    sigma_max: float = None


def _proj_angle(v):
    return np.arctan2(v[..., 1], v[..., 0]) % math.pi


def _proj_dist(a, b):
    d = np.abs(a - b) % math.pi
    return np.minimum(d, math.pi - d)


def uh_test(V, alpha, E, horizon=256, grid=128):
    """Decide uniform hyperbolicity of the Schrodinger cocycle (V, alpha, E).

    The free cocycle (V None) is constant and takes the exact trace criterion
    (margin |E| - 2).  Otherwise a finite-window unstable direction field is
    built on a theta grid by the walks of :func:`_schrodinger_walk`, and a
    cone around it is checked for strict invariance under one cocycle step;
    projective maps of SL(2,R) send arcs to arcs, so checking the two cone
    edges and the center is exact for the sampled points.  Returns
    'inconclusive' when neither certificate fires, and raises NonConvergence
    when the walked products overflow float range at this horizon.
    """
    if V is None:
        margin = abs(float(E)) - 2.0
        return UhReport(verdict="hyperbolic" if margin > 0 else "not", margin=margin)
    if horizon < 1:
        raise QpslError(f"uh_test takes horizons >= 1, not {horizon}")

    d = np.size(alpha)
    per_dim = grid if d == 1 else max(4, int(round(grid ** (1.0 / d))))
    pts = grid_points(d, per_dim)

    def unstable_field(prods):
        if not np.isfinite(prods).all():
            raise NonConvergence(f"uh_test: the transfer matrices over horizon {horizon} "
                                 f"overflow; take a shorter horizon")
        U, S, _ = np.linalg.svd(prods)
        return U[:, :, 0], S[:, 0]

    # transfer matrices over the `horizon` steps ending at each grid point,
    # and the prefix over the first max(1, horizon // 2) of those steps, as
    # column walks (u, -u_prev) from the identity; u = (1, -0) makes the
    # first product's zero entry +0, as a matrix product does
    half_k = max(1, horizon // 2)
    one, zero = np.ones(len(pts)), np.zeros(len(pts))
    walk = lambda ks, r_prev, r: _schrodinger_walk(V, alpha, E, pts, ks, r_prev, r)
    half = walk(-np.arange(1, half_k + 1), -np.array([zero, one]), np.array([one, -zero]))
    full = walk(-np.arange(half_k + 1, horizon + 1), *half)
    columns = lambda u_prev, u: np.moveaxis(np.stack([u, -u_prev], axis=1), -1, 0)
    u_full, s_full = unstable_field(columns(*full))
    u_half, _ = unstable_field(columns(*half))
    smax, smin = float(np.max(s_full)), float(np.min(s_full))
    if smax < 2.0:
        return UhReport(verdict="not", margin=smax - 2.0,
                        sigma_min=smin, sigma_max=smax)

    stable_dirs = float(np.max(_proj_dist(_proj_angle(u_full), _proj_angle(u_half))))
    if stable_dirs > math.pi / 6:
        # finite-window unstable directions do not converge: no dominated
        # splitting at this horizon (elliptic behavior)
        return UhReport(verdict="not", margin=-stable_dirs,
                        sigma_min=smin, sigma_max=smax)

    # cone contraction is checked for the horizon-step block map, a row walk
    # (r, r_prev): weakly hyperbolic cocycles only contract cones over long blocks
    r_prev, r = walk(np.arange(horizon), np.array([zero, one]), np.array([one, zero]))
    # the window ending at pts + horizon step is the forward block itself
    u_next, _ = unstable_field(np.moveaxis(np.stack([r, r_prev]), -1, 0))
    ang = _proj_angle(u_full)
    ang_next = _proj_angle(u_next)

    for phi in (math.pi / 8, math.pi / 16, math.pi / 32, math.pi / 64, math.pi / 256):
        worst = -math.inf
        ok = True
        for sgn in (-1.0, 0.0, 1.0):
            edge = ang + sgn * phi
            x, y = np.cos(edge), np.sin(edge)
            # the block's image of the directions, (r, r_prev) . (x, y) per entry
            img = np.arctan2(r_prev[0] * x + r_prev[1] * y, r[0] * x + r[1] * y) % math.pi
            dist = _proj_dist(img, ang_next)
            lim = phi / 2
            if np.max(dist) >= lim:
                ok = False
                break
            worst = max(worst, float(np.max(dist)))
        if ok and smin >= 2.0 and stable_dirs < phi:
            return UhReport(verdict="hyperbolic", margin=phi - worst,
                            sigma_min=smin, sigma_max=smax)
    return UhReport(verdict="inconclusive", margin=0.0,
                    sigma_min=smin, sigma_max=smax)
