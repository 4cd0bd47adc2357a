"""SL(2,R) / SU(1,1) matrix utilities and quasi-periodic cocycle dynamics.

A cocycle is a pair (alpha, A): the torus rotation theta -> theta + 2*pi*alpha
(alpha in cycles) skew-extended by A(theta) acting on R^2.  Rotation numbers
are reported in cycles, so gap locking reads 2*rho = <n, alpha> mod 1.

SU(1,1) is the isomorphic image of SL(2,R) under the unitary

    M = (1 + i)^(-1) [[1, -i], [1, i]],

and su(1,1) elements are parametrized as [[i*a, b], [conj(b), -i*a]] with a
real and b complex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DomainMismatch,
    NotElliptic,
    NotUnipotent,
    QpslError,
    SingularConjugator,
)
from .fourier import FourierSeries, Potential

__all__ = [
    "M_CONJ", "M_CONJ_INV",
    "to_su11", "from_su11", "check_su11",
    "su11_exp", "su11_log", "rot_su11", "frame_rotation_su11",
    "parabolic_normalize", "diagonalize_su11", "rotation_matrix",
    "QpCocycle", "schrodinger_cocycle", "transfer_product", "conjugate",
    "potential_values", "orbit_potential", "pivot_negatives", "oscillation_rho",
    "RotationResult", "rotation_number", "lyapunov_exponent",
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
    """su(1,1) element [[i a, b], [conj b, -i a]], a real, b complex."""
    return np.array([[1j * a, b], [np.conj(b), -1j * a]], complex)


def su11_exp(C):
    """Closed-form exponential of C = [[i a, b], [conj b, -i a]] over a
    (..., 2, 2) stack.

    With lam = sqrt(|b|^2 - a^2) (principal branch; imaginary lam turns the
    hyperbolic functions trigonometric) the result is
    [[cosh lam + i a sinhc, b sinhc], [conj(b) sinhc, cosh lam - i a sinhc]]
    where sinhc = sinh(lam)/lam.
    """
    C = np.asarray(C, complex)
    shape = C.shape
    C = C.reshape(-1, 2, 2)  # one matrix runs as a stack of one, bit for bit
    a = C[:, 0, 0].imag
    b = C[:, 0, 1]
    disc = (np.abs(b) ** 2 - a * a).astype(complex)
    lam = np.sqrt(disc)
    small = np.abs(lam) < 1e-8
    lam_safe = np.where(small, 1.0, lam)
    ch = np.where(small, 1.0 + disc / 2 + disc * disc / 24, np.cosh(lam_safe))
    sc = np.where(small, 1.0 + disc / 6 + disc * disc / 120,
                  np.sinh(lam_safe) / lam_safe)
    out = np.empty_like(C)
    out[:, 0, 0] = ch + 1j * a * sc
    out[:, 1, 1] = ch - 1j * a * sc
    out[:, 0, 1] = b * sc
    out[:, 1, 0] = np.conj(b) * sc
    return out.reshape(shape)


def su11_log(A, max_angle=math.pi - 1e-9):
    """Inverse of :func:`su11_exp` on its injectivity domain, over a
    (..., 2, 2) stack; raises unless every matrix is SU(1,1) within 1e-6."""
    ok, err = check_su11(A, tol=1e-6)
    if not ok:
        raise QpslError(f"matrix is not SU(1,1) (residual {err:.3e})")
    return _su11_log(A, max_angle)


def _su11_log(A, max_angle=math.pi - 1e-9):
    """:func:`su11_log` without the membership check.

    cosh(lam) is the real part of the diagonal; elliptic branches use
    lam = i*arccos, hyperbolic branches arccosh.  Raises when a rotation
    angle reaches ``max_angle`` (the log is not single-valued at pi).
    """
    A = np.asarray(A, complex)
    shape = A.shape
    A = A.reshape(-1, 2, 2)
    ch = A[:, 0, 0].real
    elliptic = ch < 1.0
    theta = np.arccos(np.clip(ch, -1.0, 1.0))
    if np.any(elliptic & (theta >= max_angle)):
        raise QpslError("rotation angle outside log injectivity radius")
    lam_h = np.arccosh(np.maximum(ch, 1.0))
    near = np.abs(ch - 1.0) < 1e-12
    sc_e = np.where(theta > 1e-8, np.sin(theta) / np.where(theta > 1e-8, theta, 1.0),
                    1.0 - theta * theta / 6.0)
    sc_h = np.where(lam_h > 1e-8, np.sinh(lam_h) / np.where(lam_h > 1e-8, lam_h, 1.0),
                    1.0 + lam_h * lam_h / 6.0)
    sc = np.where(near, 1.0, np.where(elliptic, sc_e, sc_h))
    a = A[:, 0, 0].imag / sc
    b = A[:, 0, 1] / sc
    out = np.empty_like(A)
    out[:, 0, 0] = 1j * a
    out[:, 1, 1] = -1j * a
    out[:, 0, 1] = b
    out[:, 1, 0] = np.conj(b)
    return out.reshape(shape)


def _j_signed_angle(A, sign):
    A = np.asarray(A, complex)
    re = A[0, 0].real
    if re >= 1.0:
        return 0.0
    if re <= -1.0:
        return 0.5
    w, vecs = np.linalg.eig(A)
    for k in (0, 1):
        v = vecs[:, k]
        jn = abs(v[0]) ** 2 - abs(v[1]) ** 2
        if sign * jn > 0:
            return (float(np.angle(w[k])) / (2 * math.pi)) % 1.0
    # numerically parabolic: J-norms vanish
    return 0.0 if re > 0 else 0.5


def rot_su11(A):
    """Rotation number of a constant SU(1,1) matrix, in cycles in [0, 1),
    oriented to match the measured projective rotation of the SL(2,R)
    preimage (the negative-J-norm eigenvalue); trace >= 2 gives 0 and
    trace <= -2 gives 1/2."""
    return _j_signed_angle(A, -1.0)


def frame_rotation_su11(A):
    """Angle (cycles) of the first diagonal entry after SU(1,1)
    diagonalization: the positive-J-norm eigenvalue.  Equals minus
    :func:`rot_su11` mod 1 for elliptic matrices."""
    return _j_signed_angle(A, +1.0)


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


# ---------------------------------------------------------------------------
# cocycles


@dataclass
class QpCocycle:
    """(alpha, A): alpha in cycles; A constant, FourierSeries, or callable.

    Callable maps must accept a batch of points with shape (m, d) and return
    (m, 2, 2).  ``halved`` marks maps on the doubled torus.
    """

    alpha: np.ndarray
    kind: str
    data: object
    halved: bool = False
    V: object = None
    E: float = None

    def __post_init__(self):
        self.alpha = np.atleast_1d(np.asarray(self.alpha, float))

    @property
    def d(self):
        return self.alpha.size

    @property
    def step(self):
        return 2 * math.pi * self.alpha

    def matrix(self, theta):
        theta = np.atleast_1d(np.asarray(theta, float))
        return self.matrix_batch(theta[None, :])[0]

    def matrix_batch(self, thetas):
        thetas = np.asarray(thetas, float)
        if thetas.ndim == 1:
            thetas = thetas[:, None]
        if thetas.shape[1] != self.d:
            raise DomainMismatch(f"points have dimension {thetas.shape[1]}, cocycle d={self.d}")
        m = thetas.shape[0]
        if self.kind == "constant":
            return np.broadcast_to(self.data, (m, 2, 2)).copy()
        if self.kind == "series":
            return self.data.sample(thetas)
        return np.asarray(self.data(thetas))

    @staticmethod
    def constant(alpha, A):
        return QpCocycle(alpha=np.atleast_1d(np.asarray(alpha, float)),
                         kind="constant", data=np.asarray(A))


def schrodinger_cocycle(V, E, alpha=None):
    """Cocycle of the operator at energy E: A(theta) = [[E - V(theta), -1], [1, 0]].

    V is None (the free operator, a constant cocycle) or a Potential.  The
    frequency defaults to the label set's when V carries one.
    """
    if V is None:
        return QpCocycle(alpha=np.zeros(1) if alpha is None else alpha, kind="constant",
                         data=np.array([[E, -1.0], [1.0, 0.0]]), V=None, E=E)
    if not isinstance(V, Potential):
        raise QpslError(f"V must be None or a Potential, not {type(V).__name__}")
    if alpha is None and V.label_set is not None:
        alpha = V.label_set.frequency.floats()

    def sampler(thetas):
        thetas = np.asarray(thetas, float)
        out = np.zeros((thetas.shape[0], 2, 2))
        out[:, 0, 0] = E - potential_values(V, thetas)
        out[:, 0, 1] = -1.0
        out[:, 1, 0] = 1.0
        return out

    return QpCocycle(alpha=np.zeros(1) if alpha is None else alpha, kind="callable",
                     data=sampler, V=V, E=E)


def transfer_product(c: QpCocycle, theta, n):
    """n-step transfer matrix: ordered product of cocycle maps along the orbit.

    n >= 0 multiplies A(theta + (n-1) step) ... A(theta); n < 0 uses the
    inverse-product convention, so S_{-n}(theta) = S_n(theta - n*step)^{-1}.
    """
    theta = np.atleast_1d(np.asarray(theta, float))
    step = c.step
    out = np.eye(2)
    if n >= 0:
        for k in range(n):
            out = c.matrix(theta + k * step) @ out
        return out
    for k in range(n, 0):
        A = c.matrix(theta + k * step)
        out = out @ np.linalg.inv(A)
    return out


def _adjugate(M):
    """adj M = [[d, -b], [-c, a]] over the last two axes.  For M = e^{Y} in
    SU(1,1) this is e^{-Y}, equal to su11_exp(-Y) bit for bit."""
    out = np.empty_like(M)
    out[..., 0, 0] = M[..., 1, 1]
    out[..., 1, 1] = M[..., 0, 0]
    out[..., 0, 1] = -M[..., 0, 1]
    out[..., 1, 0] = -M[..., 1, 0]
    return out


def _inv2_batch(mats):
    det = mats[:, 0, 0] * mats[:, 1, 1] - mats[:, 0, 1] * mats[:, 1, 0]
    return _adjugate(mats) / det[:, None, None]


def conjugate(c: QpCocycle, Z, probes=16, tol=1e-8, seed=0):
    """Cocycle (alpha, Z(theta + step)^{-1} A(theta) Z(theta)).

    This is the fixed orientation for conjugations throughout the package;
    the opposite one corresponds to replacing Z by its inverse.  Z may be a
    matrix FourierSeries (possibly on the doubled torus) or a batch callable.
    """
    if isinstance(Z, FourierSeries):
        z_eval = lambda th: Z.sample(th)
        halved = Z.halved or c.halved
    else:
        z_eval = lambda th: np.asarray(Z(th))
        halved = c.halved
    rng = np.random.default_rng(seed)
    period = 2 * math.pi * (2.0 if halved else 1.0)
    pts = rng.uniform(0, period, size=(probes, c.d))
    dets = np.linalg.det(z_eval(pts))
    if np.min(np.abs(dets)) < tol:
        raise SingularConjugator(f"min |det Z| = {np.min(np.abs(dets)):.3e} at probes")

    step = c.step

    def sampler(thetas):
        thetas = np.asarray(thetas, float)
        Zs = z_eval(thetas)
        Zs_fwd = z_eval(thetas + step[None, :])
        A = c.matrix_batch(thetas)
        return np.einsum("mij,mjk,mkl->mil", _inv2_batch(Zs_fwd), A, Zs)

    return QpCocycle(alpha=c.alpha.copy(), kind="callable", data=sampler, halved=halved)


# ---------------------------------------------------------------------------
# the Sturm pivot count shared by the IDS and the rotation number

_ORBIT_BLOCK = 4096        # sites per block of potential values along an orbit
_PIVOT_BLOCK = 1 << 15     # pivots the kernel holds at once
_TINY = 1e-300


def potential_values(V, thetas):
    """V at angles of shape (..., d), in radians; V is None (zero) or a Potential."""
    thetas = np.asarray(thetas, float)
    if V is None:
        return np.zeros(thetas.shape[:-1])
    if not isinstance(V, Potential):
        raise QpslError(f"V must be None or a Potential, not {type(V).__name__}")
    flat = thetas.reshape(-1, thetas.shape[-1])
    vals = V.sample(flat[:, 0] if flat.shape[1] == 1 else flat)
    return vals.reshape(thetas.shape[:-1])


def orbit_potential(V, alpha, thetas, sites):
    """V at theta_p + k 2 pi alpha, k = 0..sites-1, for the phases ``thetas``
    (shape (phases, d)), yielded in blocks of shape (sites, phases).

    Each angle is the running sum th = th + 2 pi alpha from its phase, built a
    block at a time with np.cumsum, which adds in the same order.
    """
    step = 2 * math.pi * np.atleast_1d(np.asarray(alpha, float))
    th = np.atleast_2d(np.asarray(thetas, float))
    for start in range(0, sites, _ORBIT_BLOCK):
        ang = np.empty((min(_ORBIT_BLOCK, sites - start),) + th.shape)
        ang[0] = th
        ang[1:] = step
        ang = np.cumsum(ang, axis=0)
        th = ang[-1] + step
        yield potential_values(V, ang)


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
    """
    E = np.asarray(energies, float)[:, None]
    r, neg = float(r_init), 0
    for block in potential:
        rows = max(1, _PIVOT_BLOCK // (E.size * block.shape[1]))
        for i in range(0, block.shape[0], rows):
            v = block[i:i + rows, None, :]
            piv = _pivots(E - v, r, zero_fix=False)
            if not piv.all():          # rare: redo the block with the zero rule
                piv = _pivots(E - v, r, zero_fix=True)
            r = piv[-1]
            neg = neg + (piv < 0).sum(axis=0)
    return neg


def _pivots(piv, r, zero_fix):
    """Turn E - V_k (shape (sites, energies, phases)) into the pivots in place.

    A step is two ufunc calls on row views and no allocation: np.reciprocal
    into one scratch row (the same correctly rounded 1.0 / r), then an
    in-place subtraction.
    """
    inv = np.empty(piv.shape[1:])
    r = np.broadcast_to(r, inv.shape)
    with np.errstate(divide="ignore", over="ignore"):
        for row in piv:
            row -= np.reciprocal(r, out=inv)
            r = row
            if zero_fix:
                r[r == 0] = -_TINY
    return piv


def oscillation_rho(V, alpha, energies, thetas, iters):
    """Rotation numbers in [0, 1/2] per energy and phase, shape (energies, phases).

    The solution from (u_{-1}, u_0) = (0.3, 1) changes sign twice per full
    projective turn, so rho = (sign changes) / (2 iters): a branch-free lift
    (no angle unwrapping), exact up to the endpoint term O(1/iters).
    """
    neg = pivot_negatives(energies, orbit_potential(V, alpha, thetas, iters), 1 / 0.3)
    return neg / (2.0 * iters)


# ---------------------------------------------------------------------------
# rotation number and Lyapunov exponent


@dataclass
class RotationResult:
    rho: float
    iters: int
    samples: int
    dispersion: float
    converged: bool
    per_sample: np.ndarray = field(repr=False, default=None)

    @property
    def folded(self):
        """rho reported in [0, 1/2] using the orientation symmetry."""
        return min(self.rho, 1.0 - self.rho)


def _circular_mean(vals):
    z = np.mean(np.exp(2j * np.pi * np.asarray(vals)))
    return float(np.angle(z) / (2 * np.pi)) % 1.0


def _circular_spread(vals):
    vals = np.asarray(vals)
    worst = 0.0
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            d = abs(vals[i] - vals[j]) % 1.0
            worst = max(worst, min(d, 1.0 - d))
    return worst


def rotation_number(c: QpCocycle, iters=100_000, phase_samples=3, seed=0,
                    dispersion_bound=None, theta0=None):
    """Fibered rotation number by Birkhoff averaging of the projective lift.

    The lift increment is the principal angle advance of a tracked direction,
    so the result is defined mod 1; the dispersion across phase samples is the
    convergence certificate (``converged`` is False when it exceeds
    ``dispersion_bound``).  The cocycle map must be homotopic to the identity
    for the mod-1 class to be frequency-independent; Schrodinger cocycles are.
    Schrodinger cocycles take the oscillation count of :func:`oscillation_rho`
    instead, which reads rho in [0, 1/2].
    """
    rng = np.random.default_rng(seed)
    period = 2 * math.pi * (2.0 if c.halved else 1.0)
    if theta0 is not None:
        thetas = np.atleast_2d(np.asarray(theta0, float)).copy()
        phase_samples = thetas.shape[0]
    else:
        thetas = rng.uniform(0, period, size=(phase_samples, c.d))
    if c.V is not None or (c.kind == "constant" and c.E is not None):
        per = oscillation_rho(c.V, c.alpha, [c.E], thetas, iters)[0]
        rho = float(np.mean(per))
        disp = float(np.max(per) - np.min(per))
    else:
        psi = np.zeros(phase_samples)
        total = np.zeros(phase_samples)
        step = c.step
        for _ in range(iters):
            A = c.matrix_batch(thetas)
            if np.iscomplexobj(A):
                A = A.real
            x, y = np.cos(psi), np.sin(psi)
            u1 = A[:, 0, 0] * x + A[:, 0, 1] * y
            u2 = A[:, 1, 0] * x + A[:, 1, 1] * y
            psi_new = np.arctan2(u2, u1)
            delta = (psi_new - psi + math.pi) % (2 * math.pi) - math.pi
            total += delta
            psi = psi_new
            thetas = thetas + step[None, :]
        per = (total / (2 * math.pi * iters)) % 1.0
        rho = _circular_mean(per)
        disp = _circular_spread(per)
    bound = dispersion_bound if dispersion_bound is not None else math.inf
    return RotationResult(rho=rho, iters=iters, samples=phase_samples,
                          dispersion=disp, converged=disp <= bound, per_sample=per)


def lyapunov_exponent(c: QpCocycle, iters=50_000, phase_samples=3, seed=0,
                      renorm_every=16):
    """Top Lyapunov exponent by renormalized vector iteration (>= 0 for
    SL(2,R) cocycles up to statistical noise)."""
    rng = np.random.default_rng(seed)
    period = 2 * math.pi * (2.0 if c.halved else 1.0)
    thetas = rng.uniform(0, period, size=(phase_samples, c.d))
    v = np.tile(np.array([[1.0], [0.7]]).T, (phase_samples, 1))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    acc = np.zeros(phase_samples)
    step = c.step
    for k in range(iters):
        A = c.matrix_batch(thetas)
        if np.iscomplexobj(A):
            A = A.real
        v = np.einsum("mij,mj->mi", A, v)
        if (k + 1) % renorm_every == 0:
            nrm = np.linalg.norm(v, axis=1)
            acc += np.log(nrm)
            v /= nrm[:, None]
        thetas = thetas + step[None, :]
    nrm = np.linalg.norm(v, axis=1)
    acc += np.log(nrm)
    return float(np.mean(acc / iters))


# ---------------------------------------------------------------------------
# uniform hyperbolicity


@dataclass
class UhReport:
    verdict: str          # 'hyperbolic' | 'not' | 'inconclusive'
    margin: float
    sigma_min: float = None
    sigma_max: float = None
    cone_half_angle: float = None

    @property
    def hyperbolic(self):
        return self.verdict == "hyperbolic"


def _proj_angle(v):
    return np.arctan2(v[..., 1], v[..., 0]) % math.pi


def _proj_dist(a, b):
    d = np.abs(a - b) % math.pi
    return np.minimum(d, math.pi - d)


def uh_test(c: QpCocycle, horizon=256, grid=128):
    """Decide uniform hyperbolicity.

    Constant cocycles use the exact trace criterion (margin |tr| - 2).
    Otherwise a finite-window unstable direction field is built on a theta
    grid and a cone around it is checked for strict invariance under one
    cocycle step; projective maps of SL(2,R) send arcs to arcs, so checking
    the two cone edges and the center is exact for the sampled points.
    Returns 'inconclusive' when neither certificate fires.
    """
    if c.kind == "constant":
        tr = float(np.trace(np.asarray(c.data, complex)).real)
        margin = abs(tr) - 2.0
        return UhReport(verdict="hyperbolic" if margin > 0 else "not", margin=margin)

    period = 2 * math.pi * (2.0 if c.halved else 1.0)
    if c.d == 1:
        pts = np.linspace(0.0, period, grid, endpoint=False)[:, None]
    else:
        per_dim = max(4, int(round(grid ** (1.0 / c.d))))
        axes = [np.linspace(0.0, period, per_dim, endpoint=False)] * c.d
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
    step = c.step

    def unstable_field(prods):
        U, S, _ = np.linalg.svd(prods)
        return U[:, :, 0], S[:, 0]

    # transfer matrices over the `horizon` steps ending at each grid point,
    # and the prefix over the first max(1, horizon // 2) of those steps
    full = half = np.broadcast_to(np.eye(2), (pts.shape[0], 2, 2)).copy()
    for k in range(1, horizon + 1):
        A = c.matrix_batch(pts - k * step[None, :])
        if np.iscomplexobj(A):
            A = A.real
        full = np.einsum("mij,mjk->mik", full, A)
        if k == max(1, horizon // 2):
            half = full
    u_full, s_full = unstable_field(full)
    u_half, _ = unstable_field(half)
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

    # cone contraction is checked for the horizon-step block map: weakly
    # hyperbolic cocycles only contract cones over long blocks
    fwd = np.broadcast_to(np.eye(2), (pts.shape[0], 2, 2)).copy()
    for k in range(horizon):
        A = c.matrix_batch(pts + k * step[None, :])
        if np.iscomplexobj(A):
            A = A.real
        fwd = np.einsum("mij,mjk->mik", A, fwd)
    # the window ending at pts + horizon step is the forward block itself
    u_next, _ = unstable_field(fwd)
    ang = _proj_angle(u_full)
    ang_next = _proj_angle(u_next)

    for phi in (math.pi / 8, math.pi / 16, math.pi / 32, math.pi / 64, math.pi / 256):
        worst = -math.inf
        ok = True
        for sgn in (-1.0, 0.0, 1.0):
            edge = ang + sgn * phi
            v = np.stack([np.cos(edge), np.sin(edge)], axis=1)
            img = np.einsum("mij,mj->mi", fwd, v)
            dist = _proj_dist(_proj_angle(img), ang_next)
            lim = phi / 2
            if np.max(dist) >= lim:
                ok = False
                break
            worst = max(worst, float(np.max(dist)))
        if ok and smin >= 2.0 and stable_dirs < phi:
            return UhReport(verdict="hyperbolic", margin=phi - worst,
                            sigma_min=smin, sigma_max=smax, cone_half_angle=phi)
    return UhReport(verdict="inconclusive", margin=0.0,
                    sigma_min=smin, sigma_max=smax)
