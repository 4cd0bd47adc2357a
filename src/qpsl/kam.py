"""Reducibility iteration for SU(1,1) cocycles over Diophantine rotations.

The cocycle is kept in the normal form (alpha, A_j e^{f_j} prod_p e^{V_p W_j}):
a constant elliptic part A_j, a small su(1,1) remainder f_j, and the not yet
consumed potential modes V_p conjugated along by the accumulated change of
variables.  One step removes every non-resonant Fourier mode of the current
perturbation by a quadratically convergent Newton iteration; a resonant step
additionally diagonalizes A_j, excises the resonant site with a half-period
rotation (which lives on the doubled torus), and restarts with a much smaller
constant rotation.

su(1,1)-valued series are stored as a pair of scalar series (u, w) via
W(theta) = [[i u, w], [conj w, -i u]]; the homological equation is then
diagonal in coefficient space with divisors e^{2 pi i <n,alpha>} - 1 on the
diagonal component and e^{2 pi i (<n,alpha> - 2 sigma)} - 1 off the diagonal,
sigma being the angle (in cycles) of the diagonalized constant.

Every accepted step is certified by evaluating both sides of the conjugation
identity at random probe points; this residual is the single correctness gate.

Settings no caller varies are module constants: the strip width H0 * H_DECAY^j
of step j (unless strict mode has a schedule), the Newton stop NEWTON_TOL and
cap NEWTON_MAX_SWEEPS, the divisor floor DIVISOR_FLOOR, the resonance
threshold cap THRESHOLD_CAP, and the energy-target lock tolerance LOCK_TOL with
its rotation-number iterations ROTATION_ITERS.  Everything a caller sets is on
:class:`KamParams`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .cocycle import (
    diagonalize_su11,
    frame_rotation_su11,
    rotation_matrix,
    rotation_number,
    schrodinger_cocycle,
    su11_element,
    su11_exp,
    _adjugate,
    _su11_log,
    to_su11,
    M_CONJ,
    M_CONJ_INV,
    parabolic_normalize,
)
from .diophantine import dist_to_integers, sup_norm
from .errors import (
    NewtonDiverged,
    NonConvergence,
    NotElliptic,
    QpslError,
    SmallDivisor,
    StateInvalid,
    TargetNotLocked,
)
from .fourier import (
    FourierSeries,
    Potential,
    grid_values,
    key_grid,
    multiply,
    potential_modes,
    series_from_grid,
    shift_sum,
)

__all__ = [
    "Su11Series", "KamParams", "KamState", "StepReport", "ReducibilityResult",
    "ModeRule", "classify_resonance", "solve_homological", "remove_nonresonant",
    "kam_step", "compute_diagnostics", "run_reducibility",
]

_W0_SL2 = np.array([[0.0, 0.0], [1.0, 0.0]])


# ---------------------------------------------------------------------------
# su(1,1)-valued series as a (u, w) pair of scalar series


def _su11_values(uu, ww):
    """W = [[i u, w], [conj w, -i u]] from sampled u and w."""
    out = np.empty(uu.shape + (2, 2), complex)
    out[..., 0, 0] = 1j * uu.real  # enforce the real-u structure exactly
    out[..., 1, 1] = -1j * uu.real
    out[..., 0, 1] = ww
    out[..., 1, 0] = np.conj(ww)
    return out


@dataclass
class Su11Series:
    """W(theta) = [[i u, w], [conj w, -i u]] with u real-valued."""

    u: FourierSeries
    w: FourierSeries

    @staticmethod
    def zero(d):
        return Su11Series(FourierSeries(d), FourierSeries(d))

    @staticmethod
    def constant(d, a, b):
        return Su11Series(FourierSeries.constant(d, complex(a)),
                          FourierSeries.constant(d, complex(b)))

    @property
    def d(self):
        return self.u.d

    def copy(self):
        return Su11Series(self.u.copy(), self.w.copy())

    def is_zero(self, tol=0.0):
        return self.u.coeff_mass() <= tol and self.w.coeff_mass() <= tol

    def degree(self):
        return max(self.u.degree, self.w.degree)

    def norm(self, h):
        """Majorant of sup ||W|| on the strip: |u|_h + |w|_h pointwise bounds."""
        return self.u.analytic_norm(h) + self.w.analytic_norm(h)

    def scale(self, c):
        return Su11Series(self.u.scale(c), self.w.scale(c))

    def sample(self, pts):
        return _su11_values(self.u.sample(pts), self.w.sample(pts))

    def on_grid(self, G, shift=None):
        """Values on grid_points(d, G), or on that grid moved by 2 pi shift."""
        return _su11_values(grid_values(self.u, G, shift), grid_values(self.w, G, shift))

    def symmetrize(self):
        """Project u onto real-valued functions (Hermitian coefficients)."""
        u = self.u.block
        return Su11Series(self.u._like((u + np.conj(np.flip(u))) / 2), self.w.copy())

    def prune(self, tol):
        self.u.prune(tol)
        self.w.prune(tol)
        return self

    def ad_constant(self, P):
        """Ad(P) W = P W P^{-1} coefficientwise (P a constant SU(1,1) matrix)."""
        K = max(self.u.K, self.w.K)
        u, w = self.u.padded(K), self.w.padded(K)
        C = np.empty(u.shape + (2, 2), complex)
        C[..., 0, 0] = 1j * u
        C[..., 0, 1] = w
        C[..., 1, 0] = np.conj(np.flip(w))
        C[..., 1, 1] = -1j * u
        Cp = P @ C @ np.linalg.inv(P)
        return Su11Series(self.u._like(-1j * Cp[..., 0, 0]), self.w._like(Cp[..., 0, 1]))

    def shift_w(self, delta):
        """Ad of the half-period rotation with site -delta: w-modes move by
        +delta, u unchanged."""
        return Su11Series(self.u.copy(), shift_sum(self.w, [delta], [1.0]))


def su11_series_from_samples(vals, d, max_degree=None, prune_tol=1e-16):
    """Pointwise su(1,1) samples on the standard grid -> (u, w) series."""
    vals = np.asarray(vals)
    u_vals = vals[:, 0, 0].imag
    w_vals = vals[:, 0, 1]
    u = series_from_grid(u_vals.astype(complex), d, kind="scalar",
                         max_degree=max_degree, prune_tol=prune_tol)
    w = series_from_grid(w_vals, d, kind="scalar",
                         max_degree=max_degree, prune_tol=prune_tol)
    out = Su11Series(u, w).symmetrize()  # w.copy() keeps its dropped mass
    out.u.dropped_mass = u.dropped_mass
    return out


def exp_series(Y: Su11Series, grid, max_degree):
    """e^{Y(theta)} as a matrix-valued series via the grid transform."""
    vals = su11_exp(Y.on_grid(grid))
    return series_from_grid(vals, Y.d, kind="matrix", max_degree=max_degree,
                            prune_tol=1e-16)


# ---------------------------------------------------------------------------
# parameters and state


# Fixed settings of the iteration (see the module docstring).
H0 = 0.05                  # strip width of step 0 ...
H_DECAY = 0.75             # ... shrinking by this factor per step
NEWTON_TOL = 1e-14         # Newton stops at this fraction of the input norm
NEWTON_MAX_SWEEPS = 16
DIVISOR_FLOOR = 1e-9       # smallest divisor the homological solve accepts
THRESHOLD_CAP = 5e-2       # cap of the resonance threshold
LOCK_TOL = 1e-3            # 2 rho = <n, alpha> mod 1 lock tolerance
ROTATION_ITERS = 200_000   # iterations of the lock's rotation number


@dataclass
class KamParams:
    """Run parameters.  ``relaxed`` replaces the asymptotic-regime thresholds (which
    need k of order hundreds of tau) by measured-and-logged desk values; every
    relaxation is recorded on the reports so no run silently claims the strict
    regime.  The fixed settings are the module constants H0, H_DECAY,
    NEWTON_TOL, NEWTON_MAX_SWEEPS, DIVISOR_FLOOR, THRESHOLD_CAP, LOCK_TOL and
    ROTATION_ITERS."""

    tau: float = 1.5
    k_exponent: float = 2.0
    schedule: object = None
    max_degree: int = 384
    grid_size: int = 2048
    conj_residual_tol: float = 1e-9
    window_cap: int = None
    relaxed: bool = True
    stop_tol: float = 1e-12
    probe_count: int = 12
    seed: int = 0

    def level(self, j):
        if self.schedule is None:
            return None
        return self.schedule.level_float(j)

    def width(self, j):
        if not self.relaxed and self.schedule is not None:
            ell = self.level(j)
            if ell and ell > 1:
                return 10 * self.tau * math.log(ell) / ell
        return H0 * H_DECAY ** j

    def window(self, j):
        cap = self.window_cap or self.max_degree
        if self.schedule is not None:
            ell_next = self.level(j + 1)
            if ell_next is not None and math.isfinite(ell_next):
                return int(min(cap, max(8, 2 * ell_next)))
        return cap

    def threshold(self, j):
        strict_val = None
        if self.schedule is not None:
            ell = self.level(j)
            if ell and ell > 1:
                strict_val = ell ** (-4 * self.tau)
        if strict_val is None:
            return THRESHOLD_CAP
        return max(strict_val, THRESHOLD_CAP) if self.relaxed else strict_val

    def grid_for(self, degree, d=1):
        cap = self.grid_size if d == 1 else max(32, int(self.grid_size ** (1.0 / d)))
        g = 32
        while g < 4 * (degree + 1):
            g *= 2
        return min(max(g, 32), cap)


@dataclass
class KamState:
    j: int
    A: np.ndarray                 # constant SU(1,1) part
    f: Su11Series                 # small remainder
    pending: list                 # [(level, label tuple, coefficient), ...]
    W: Su11Series                 # Ad(D) of the nilpotent direction
    Dinv: FourierSeries           # inverse of the accumulated conjugation D
    alpha: np.ndarray
    n_tilde: tuple
    sigma0: float                 # ||A_0||
    stopped: bool = False


@dataclass
class StepReport:
    j: int
    case: str                      # 'NR' | 'RS' | 'trivial'
    site: tuple = None
    sigma: float = None
    norm_before: float = None
    norm_after: float = None
    residual: float = None
    xi: float = None
    big_m: float = None
    small_m: float = None
    b_next: complex = None
    dropped_mass: float = 0.0
    site_unique: bool = True
    newton_sweeps: list = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)

    def as_dict(self):
        return {
            "j": self.j, "case": self.case,
            "site": list(self.site) if self.site is not None else None,
            "sigma": self.sigma, "norm_before": self.norm_before,
            "norm_after": self.norm_after, "residual": self.residual,
            "xi": self.xi, "M": self.big_m, "m": self.small_m,
            "b_next": [self.b_next.real, self.b_next.imag] if self.b_next is not None else None,
            "dropped_mass": self.dropped_mass, "site_unique": self.site_unique,
            "newton_sweeps": self.newton_sweeps,
            "diagnostics": self.diagnostics,
        }


# ---------------------------------------------------------------------------
# resonance classification and the homological equation


@dataclass
class Classification:
    case: str
    site: tuple = None
    distance: float = None
    unique: bool = True


def classify_resonance(rho, alpha, N, threshold):
    """Scan 0 < |n| <= N for ||2 rho - <n, alpha>||_{R/Z} < threshold.

    ``rho`` may be a number (cycles) or a constant SU(1,1) matrix.  Returns
    the minimizing site; several sites under the threshold flag
    ``unique=False`` (the winner is still the minimizer).
    """
    if not np.isscalar(rho):
        rho = frame_rotation_su11(np.asarray(rho, complex))
    alpha = np.atleast_1d(np.asarray(alpha, float))
    d = alpha.size
    if not 0 < threshold < 1:
        raise QpslError("threshold must lie in (0,1)")
    target = 2.0 * float(rho)
    keys = key_grid(N, d).reshape(-1, d)
    keys = keys[(keys != 0).any(axis=1)]
    vals = dist_to_integers(target - keys @ alpha)
    hits = int(np.sum(vals < threshold))
    # ties (possible at rho = 1/4 etc.) break toward small sites, then toward
    # the larger key (a positive site before its negative)
    k = np.lexsort(tuple(-keys[:, ::-1].T) + (np.abs(keys).max(axis=1), vals))[0]
    best, best_n = float(vals[k]), tuple(keys[k].tolist())
    if best < threshold:
        return Classification(case="RS", site=best_n, distance=best, unique=hits <= 1)
    return Classification(case="NR", site=None, distance=best, unique=True)


@dataclass
class ModeRule:
    """Coefficient-space resonance rule for the splitting C = C^{nre} + C^{re}.

    A diagonal mode n is non-resonant iff ||<n,alpha>|| >= diag_floor; an
    off-diagonal mode iff ||<n,alpha> - 2 sigma|| >= off_floor.  The mean,
    the excluded site and everything beyond the window stay in the resonant
    part (the off-diagonal mean only when ``keep_w_mean`` or its divisor is
    small)."""

    alpha: np.ndarray
    sigma: float
    window: int
    diag_floor: float
    off_floor: float
    exclude: tuple = None
    keep_w_mean: bool = True

    def resonant(self, K, d):
        """Masks (u, w) over the keys of a centred block of half-width K:
        true where the mode stays in the resonant part."""
        keys = key_grid(K, d)
        dots = keys @ self.alpha
        zero = (keys == 0).all(axis=-1)
        far = np.abs(keys).max(axis=-1) > self.window
        u_res = zero | far | (dist_to_integers(dots) < self.diag_floor)
        w_res = far | (dist_to_integers(dots - 2.0 * self.sigma) < self.off_floor)
        if self.exclude is not None:
            w_res |= (keys == np.asarray(self.exclude)).all(axis=-1)
        if self.keep_w_mean:
            w_res |= zero
        return u_res, w_res

    def split(self, F: Su11Series):
        u_res = self.resonant(F.u.K, F.d)[0]
        w_res = self.resonant(F.w.K, F.d)[1]
        return (Su11Series(F.u.restrict(~u_res), F.w.restrict(~w_res)),
                Su11Series(F.u.restrict(u_res), F.w.restrict(w_res)))


def divisor_w(n, alpha, sigma):
    """e^{2 pi i (<n, alpha> - 2 sigma)} - 1 for a key n, or over keys (..., d)."""
    return np.exp(2j * np.pi * (np.asarray(n) @ np.asarray(alpha, float) - 2.0 * sigma)) - 1.0


def divisor_u(n, alpha):
    """e^{2 pi i <n, alpha>} - 1 for a key n, or over keys of shape (..., d)."""
    return divisor_w(n, alpha, 0.0)


def solve_homological(A, F_nre: Su11Series, alpha, floor=1e-12, sigma=None):
    """Solve A^{-1} Y(.+alpha) A - Y = -F_nre for diagonal A, mode by mode.

    ``A`` must be diagonal (pass sigma directly to skip the check); raises
    SmallDivisor when a supported mode has divisor modulus below ``floor``.
    """
    if sigma is None:
        A = np.asarray(A, complex)
        if abs(A[0, 1]) + abs(A[1, 0]) > 1e-12:
            raise QpslError("solve_homological expects a diagonal constant part")
        sigma = (float(np.angle(A[0, 0])) / (2 * math.pi)) % 1.0
    alpha = np.atleast_1d(np.asarray(alpha, float))
    Y = []
    for F, offset in ((F_nre.u, 0.0), (F_nre.w, sigma)):
        keys = key_grid(F.K, F.d)
        dv = divisor_w(keys, alpha, offset)
        small = F.support() & (np.abs(dv) < floor)
        if small.any():
            i = tuple(np.argwhere(small)[0])
            raise SmallDivisor(tuple(keys[i].tolist()), float(abs(dv[i])), floor)
        Y.append(F._like(-F.block / np.where(F.support(), dv, 1.0)))
    return Su11Series(*Y)


def _min_divisor_distance(alpha, N, d):
    """min ||<n, alpha>|| over 0 < |n| <= N."""
    keys = key_grid(N, d).reshape(-1, d)
    vals = dist_to_integers(np.abs(keys @ np.atleast_1d(np.asarray(alpha, float))))
    return float(np.min(vals[(keys != 0).any(axis=1)]))


def remove_nonresonant(A, F: Su11Series, eta, h, alpha, rule: ModeRule = None,
                       params: KamParams = None, probes=8, seed=0):
    """Newton iteration conjugating (alpha, A e^F) to (alpha, A e^{F*}) with
    F* supported on the resonant complement of the mode rule.

    Returns (Y, F_star, report).  The conjugator is e^Y with
    e^{Y(.+alpha)} A e^{F} e^{-Y} = A e^{F*}, certified on random probes.
    eta is the divisor floor passed to the mode-by-mode solves; |Y|_h is
    monitored against 2 |F|_h / eta.
    """
    params = params or KamParams()
    alpha = np.atleast_1d(np.asarray(alpha, float))
    A = np.asarray(A, complex)
    d = F.d

    if abs(A[0, 1]) + abs(A[1, 0]) < 1e-13:  # already diagonal
        P = np.eye(2, dtype=complex)
        theta = float(np.angle(A[0, 0])) % (2 * math.pi)
    else:
        P, theta = diagonalize_su11(A)
    sigma = theta / (2 * math.pi)
    Ad = np.diag([np.exp(1j * theta), np.exp(-1j * theta)])

    if rule is None:
        N = params.window_cap or params.max_degree
        rule = ModeRule(alpha=alpha, sigma=sigma, window=N,
                        diag_floor=_min_divisor_distance(alpha, N, d) / 2,
                        off_floor=params.threshold(0) if params.schedule else THRESHOLD_CAP,
                        keep_w_mean=True)

    g = F.ad_constant(P)
    scale = max(g.norm(h), 1e-300)
    max_deg = params.max_degree
    # sweeps spread spectral content; fit on a grid sized for the full cap so
    # aliasing stays below the quadratic error floor
    grid = params.grid_for(max_deg, d)
    step = 2 * math.pi * alpha

    E_acc = None
    sweeps = []
    dropped = 0.0
    g_cur = g.copy()
    for it in range(NEWTON_MAX_SWEEPS):
        nre, _ = rule.split(g_cur)
        nre_norm = nre.norm(h)
        sweeps.append(nre_norm)
        if nre_norm <= NEWTON_TOL * scale:
            break
        if it >= 2 and nre_norm > 0.5 * sweeps[-2] and nre_norm > NEWTON_TOL * scale * 10:
            raise NewtonDiverged(
                f"non-resonant norm stalled at {nre_norm:.3e} (sweep {it})")
        Y_p = solve_homological(None, nre, alpha, floor=eta, sigma=sigma)
        # e^{Y(.+alpha)} A' e^{g} e^{-Y} = A' e^{g'}
        E_here = su11_exp(Y_p.on_grid(grid))
        E_fwd = su11_exp(Y_p.on_grid(grid, shift=alpha))
        Gv = su11_exp(g_cur.on_grid(grid))
        inner = np.einsum("ij,mjk,kl->mil", np.linalg.inv(Ad), E_fwd, Ad)
        prod = np.einsum("mij,mjk,mkl->mil", inner, Gv, _adjugate(E_here))
        g_next_vals = _su11_log(prod)
        g_cur = su11_series_from_samples(g_next_vals, d, max_degree=max_deg)
        dropped += g_cur.u.dropped_mass + g_cur.w.dropped_mass
        E_acc = E_here if E_acc is None else np.einsum("mij,mjk->mik", E_here, E_acc)
    else:
        nre, _ = rule.split(g_cur)
        if nre.norm(h) > NEWTON_TOL * scale * 100:
            raise NewtonDiverged("Newton sweep cap reached without contraction")

    if E_acc is None:
        Y_total = Su11Series.zero(d)
    else:
        Y_total = su11_series_from_samples(_su11_log(E_acc), d, max_degree=max_deg)
    # back to the original frame
    Pinv = np.linalg.inv(P)
    Y_out = Y_total.ad_constant(Pinv)
    F_star = g_cur.ad_constant(Pinv)
    F_star.prune(1e-18)

    # certification on random probes
    rng = np.random.default_rng(seed)
    pr = rng.uniform(0, 2 * math.pi, size=(probes, d))
    Ye = Y_out.sample(pr + step[None, :])
    Yb = Y_out.sample(pr)
    lhs = np.einsum("mij,jk,mkl,mlp->mip", su11_exp(Ye), A,
                    su11_exp(F.sample(pr)), su11_exp(-Yb))
    rhs = np.einsum("ij,mjk->mik", A, su11_exp(F_star.sample(pr)))
    residual = float(np.max(np.abs(lhs - rhs)))

    y_norm = Y_out.norm(h)
    report = {
        "sweeps": sweeps,
        "residual": residual,
        "dropped_mass": dropped,
        "y_norm": y_norm,
        "y_bound_monitor": y_norm <= 2.0 * F.norm(h) / max(eta, 1e-300) + 1e-12,
        "sigma": sigma,
    }
    return Y_out, F_star, report


# ---------------------------------------------------------------------------
# diagnostics of the twisted form


def compute_diagnostics(W: Su11Series, n_tilde, h):
    """xi = |<w>|, M = |w|_h + |u|_h, m = sup over |n| >= |n_tilde| of
    (|w(n)| + |u(n)|)/2, all computed on the twisted components (the w-series
    is shifted so the accumulated resonance sits at frequency zero)."""
    w_twist = shift_sum(W.w, [n_tilde], [1.0])
    xi = abs(w_twist.mean())
    big = W.w.analytic_norm(h) + W.u.analytic_norm(h)
    K = max(w_twist.K, W.u.K)
    far = np.abs(key_grid(K, W.d)).max(axis=-1) >= sup_norm(n_tilde)
    both = 0.5 * (np.abs(w_twist.padded(K)) + np.abs(W.u.padded(K)))
    small = float(np.max(both, where=far, initial=0.0))
    return {"xi": xi, "M": big, "m": small}


# ---------------------------------------------------------------------------
# one KAM step


def _q_series(site, d, inverse=False):
    """Half-period rotation Q(theta) = diag(e^{-i<site,theta>/2}, e^{+i...}),
    a two-coefficient matrix series on the doubled torus."""
    sgn = 1 if inverse else -1
    return FourierSeries(d, {tuple(sgn * c for c in site): np.diag([1.0, 0.0]),
                             tuple(-sgn * c for c in site): np.diag([0.0, 1.0])},
                         halved=True, kind="matrix")


def _combine_f_and_label(state: KamState, V_modes, params):
    """F~ with e^{F~} = e^{f} e^{V_j W}: exact grid logarithm of the product.
    V_j is given by its modes (keys, values), or None when it is zero."""
    d = state.f.d
    if V_modes is None:
        return state.f.copy(), 0.0
    # V W with the sparse V: W moved by each +-label, never a dense V
    T = Su11Series(shift_sum(state.W.u, *V_modes, params.max_degree),
                   shift_sum(state.W.w, *V_modes, params.max_degree))
    if state.f.is_zero(1e-300):
        return T, T.u.dropped_mass + T.w.dropped_mass
    grid = params.grid_for(int(max(state.f.degree(), T.degree())) + 4, d)
    vals = np.einsum("mij,mjk->mik", su11_exp(state.f.on_grid(grid)),
                     su11_exp(T.on_grid(grid)))
    out = su11_series_from_samples(_su11_log(vals), d,
                                   max_degree=params.max_degree)
    return out, out.u.dropped_mass + out.w.dropped_mass


def _split_mean(A_base, G: Su11Series, params):
    """(A_next, f_next) with A_next e^{f_next} = A_base e^{G}: the mean of G
    joins the constant, A_next = A_base e^{<G>}, and f_next is the grid log of
    e^{-<G>} e^{G} (zero when G has no modes besides its mean)."""
    d = G.d
    mean = su11_element(G.u.mean().real, G.w.mean())
    E_mean = su11_exp(mean)
    A_next = A_base @ E_mean
    if G.degree() == 0:
        return A_next, Su11Series.zero(d)
    vals = su11_exp(G.on_grid(params.grid_for(int(G.degree()) + 4, d)))
    logs = _su11_log(np.einsum("ij,mjk->mik", np.linalg.inv(E_mean), vals))
    return A_next, su11_series_from_samples(logs, d, max_degree=params.max_degree)


def _exp_pair(Y: Su11Series, params):
    """The series of e^{Y} and of e^{-Y}, its coefficientwise adjugate."""
    E = exp_series(Y, params.grid_for(int(Y.degree()) * 2 + 8, Y.d), params.max_degree)
    return E, E.map_values(_adjugate)


def kam_step(state: KamState, params: KamParams):
    """One step of the iteration; returns (new_state, StepReport).

    The step conjugation identity
    B_j(theta + alpha)(A_j e^{F~_j}) B_j(theta)^{-1} = A_{j+1} e^{f_{j+1}}
    is evaluated at random probes and must pass params.conj_residual_tol.
    """
    j = state.j
    d = state.f.d
    alpha = state.alpha
    h = params.width(j)
    labels = [(lab, c) for (lvl, lab, c) in state.pending if lvl == j]
    remaining = [p for p in state.pending if p[0] != j]
    V_modes = potential_modes(Potential(labels=[lab for lab, _ in labels],
                                        coefficients=[c for _, c in labels],
                                        k_exponent=0.0)) if labels else None

    F_t, drop0 = _combine_f_and_label(state, V_modes, params)
    norm_before = F_t.norm(h)

    re_a = float(np.asarray(state.A)[0, 0].real)
    elliptic = abs(re_a) < 1.0 - 1e-12

    # nothing to remove: either a free step, or a settled non-elliptic constant
    done = norm_before <= params.stop_tol and not labels
    if done or (not elliptic and
                norm_before <= max(params.stop_tol * 10, params.conj_residual_tol)):
        report = StepReport(j=j, case="trivial", sigma=None,
                            norm_before=norm_before, norm_after=norm_before,
                            residual=0.0, b_next=complex(state.A[0, 1]))
        # a free step ends the run only when no labels remain
        new_state = KamState(j=j + 1, A=state.A.copy(), f=state.f.copy(),
                             pending=remaining, W=state.W.copy(),
                             Dinv=state.Dinv, alpha=alpha, n_tilde=state.n_tilde,
                             sigma0=state.sigma0, stopped=not (done and remaining))
        return new_state, report
    if not elliptic:
        raise StateInvalid(
            f"constant part not elliptic (Re a = {re_a:.6f}) with perturbation "
            f"{norm_before:.3e} above the stop tolerance")

    sigma = frame_rotation_su11(state.A)
    N = params.window(j)
    dioph_min = _min_divisor_distance(alpha, N, d)
    if params.relaxed:
        # the resonant route must absorb every site the Newton sweep cannot
        # solve through (its convergence boundary sits at distance of order
        # sqrt of the perturbation), while staying below the cap
        thr = min(params.threshold(j),
                  max(dioph_min / 5, 4.0 * math.sqrt(max(norm_before, 0.0))))
    else:
        thr = params.threshold(j)
    cls = classify_resonance(sigma, alpha, N, thr)

    diag_floor = dioph_min / 2

    if cls.case == "NR":
        rule = ModeRule(alpha=alpha, sigma=sigma, window=N,
                        diag_floor=min(diag_floor, thr),
                        off_floor=min(cls.distance / 2, thr),
                        exclude=None, keep_w_mean=True)
        Y, F_star, rep = remove_nonresonant(state.A, F_t, DIVISOR_FLOOR, h, alpha,
                                            rule=rule, params=params,
                                            seed=params.seed + j)
        A_next, f_next = _split_mean(state.A, F_star, params)
        B_step, B_inv = _exp_pair(Y, params)
        W_next = _ad_series(B_step, B_inv, state.W, params)
        n_tilde_next = state.n_tilde
        site = None
        site_unique = True
        extra = {"y_norm": rep["y_norm"], "y_bound_monitor": rep["y_bound_monitor"]}
    else:
        site = cls.site
        P, theta = diagonalize_su11(state.A)
        sigma = theta / (2 * math.pi)
        g = F_t.ad_constant(P)
        rule = ModeRule(alpha=alpha, sigma=sigma, window=params.max_degree,
                        diag_floor=min(diag_floor, thr),
                        off_floor=min(thr, max(cls.distance * 2, DIVISOR_FLOOR * 10)),
                        exclude=site, keep_w_mean=False)
        A_diag = np.diag([np.exp(1j * theta), np.exp(-1j * theta)])
        Y, g_star, rep = remove_nonresonant(A_diag, g, DIVISOR_FLOOR, h, alpha,
                                            rule=rule, params=params,
                                            seed=params.seed + 101 * (j + 1))
        # rotate the resonant site to frequency zero (doubled torus)
        g_rot = g_star.shift_w(tuple(-c for c in site))
        phi_new = theta - math.pi * float(np.dot(site, alpha))
        A_rot = np.diag([np.exp(1j * phi_new), np.exp(-1j * phi_new)])
        A_next, f_next = _split_mean(A_rot, g_rot, params)
        expY, expYinv = _exp_pair(Y, params)
        Q = _q_series(site, d)
        Qinv = _q_series(site, d, inverse=True)
        B_step = multiply(Q, multiply(expY, FourierSeries.constant(d, P),
                                      max_degree=params.max_degree),
                          max_degree=params.max_degree)
        B_inv = multiply(FourierSeries.constant(d, np.linalg.inv(P)),
                         multiply(expYinv, Qinv, max_degree=params.max_degree),
                         max_degree=params.max_degree)
        W1 = state.W.ad_constant(P)
        W2 = _ad_series(expY, expYinv, W1, params)
        W_next = W2.shift_w(tuple(-c for c in site))
        n_tilde_next = tuple(a + b for a, b in zip(state.n_tilde, site))
        site_unique = cls.unique
        extra = {"y_norm": rep["y_norm"], "rotation_shift": float(np.dot(site, alpha)) / 2}
        if labels:
            # tracked off-diagonal source: the site coefficient of the
            # diagonal-frame potential term P (V W) P^{-1}
            t_hat = complex(shift_sum(W1.w, *V_modes, sup_norm(site))[site])
            extra["t_hat_site"] = [t_hat.real, t_hat.imag]
            extra["b_minus_t_hat"] = abs(complex(A_next[0, 1]) - t_hat)
    dropped = drop0 + rep["dropped_mass"] + B_step.dropped_mass

    # certify the step on random probes of the doubled torus
    rng = np.random.default_rng(params.seed + 7 * j + 3)
    pr = rng.uniform(0, 4 * math.pi, size=(params.probe_count, d))
    step_vec = 2 * math.pi * alpha
    Bv = B_step.sample(pr + step_vec[None, :])
    Bv_inv = B_inv.sample(pr)
    mid = np.einsum("ij,mjk->mik", state.A, su11_exp(F_t.sample(pr)))
    lhs = np.einsum("mij,mjk,mkl->mil", Bv, mid, Bv_inv)
    rhs = np.einsum("ij,mjk->mik", A_next, su11_exp(f_next.sample(pr)))
    residual = float(np.max(np.abs(lhs - rhs)))
    if residual > params.conj_residual_tol:
        raise StateInvalid(
            f"step {j} conjugacy residual {residual:.3e} exceeds "
            f"{params.conj_residual_tol:.1e}")

    Dinv_next = multiply(state.Dinv, B_inv, max_degree=2 * params.max_degree)

    f_next.prune(1e-18)
    diag = compute_diagnostics(W_next, n_tilde_next, params.width(j + 1))
    report = StepReport(
        j=j, case=cls.case, site=site, sigma=sigma,
        norm_before=norm_before, norm_after=f_next.norm(params.width(j + 1)),
        residual=residual, xi=diag["xi"], big_m=diag["M"], small_m=diag["m"],
        b_next=complex(A_next[0, 1]), dropped_mass=dropped,
        site_unique=site_unique, newton_sweeps=rep["sweeps"],
        diagnostics=extra)
    new_state = KamState(j=j + 1, A=A_next, f=f_next, pending=remaining,
                         W=W_next, Dinv=Dinv_next, alpha=alpha,
                         n_tilde=n_tilde_next, sigma0=state.sigma0)
    return new_state, report


def _ad_series(E: FourierSeries, Einv: FourierSeries, W: Su11Series,
               params: KamParams):
    """Ad(E) W = E W E^{-1} for a matrix series E with inverse series Einv."""
    G = params.grid_for(int(E.degree + W.degree() + Einv.degree) + 4, W.d)
    vals = np.einsum("mij,mjk,mkl->mil", grid_values(E, G), W.on_grid(G),
                     grid_values(Einv, G))
    return su11_series_from_samples(vals, W.d, max_degree=params.max_degree)


# ---------------------------------------------------------------------------
# full reducibility run


@dataclass
class ReducibilityResult:
    B: FourierSeries
    zeta: float
    k0: int
    conj_residual: float
    energy: float
    label: tuple
    reports: list
    psl_sign: int
    zeta_window: dict
    b_final: complex
    phi: float
    b_ck_norm: float = None
    relaxations: list = field(default_factory=list)
    edge_search: dict = None

    def as_dict(self):
        return {
            "zeta": self.zeta, "k0": self.k0,
            "conj_residual": self.conj_residual, "energy": self.energy,
            "label": list(self.label) if self.label is not None else None,
            "psl_sign": self.psl_sign, "phi": self.phi,
            "zeta_window": self.zeta_window,
            "b_ck_norm": self.b_ck_norm,
            "b_final": [self.b_final.real, self.b_final.imag],
            "relaxations": self.relaxations,
            "edge_search": self.edge_search,
            "steps": [r.as_dict() for r in self.reports],
        }

    def to_json(self):
        return json.dumps(self.as_dict(), indent=2)


def _reduce_at_energy(V, alpha, E, params: KamParams, max_steps):
    alpha = np.atleast_1d(np.asarray(alpha, float))
    d = alpha.size
    pending = []
    if V is not None:
        for i, lab in enumerate(V.labels):
            lvl = V.label_set.entries[i].level if V.label_set is not None else 0
            pending.append((lvl, tuple(int(x) for x in lab), V.coefficients[i]))
    W_mat = to_su11(_W0_SL2)
    A0 = to_su11(np.array([[E, -1.0], [1.0, 0.0]]))
    state = KamState(j=min([p[0] for p in pending], default=0), A=A0,
                     f=Su11Series.zero(d), pending=pending,
                     W=Su11Series.constant(d, W_mat[0, 0].imag, W_mat[0, 1]),
                     Dinv=FourierSeries.constant(d, np.eye(2), halved=True),
                     alpha=alpha, n_tilde=(0,) * d, sigma0=float(np.linalg.norm(A0, 2)))
    reports = []
    for _ in range(max_steps):
        state, rep = kam_step(state, params)
        reports.append(rep)
        if state.stopped:
            break
        if not state.pending and state.f.norm(params.width(state.j)) <= params.stop_tol:
            break
    return state, reports


def _gap_indicator(state):
    """|Re a| - 1 of the final constant: positive inside a gap (hyperbolic or
    parabolic reduced constant), negative in the spectrum (elliptic)."""
    return abs(float(np.asarray(state.A)[0, 0].real)) - 1.0


def run_reducibility(V, alpha, target, params: KamParams = None, max_steps=24):
    """Reduce the Schrodinger cocycle at a locked energy to the parabolic
    normal form [[1, zeta], [0, 1]].

    ``target`` is {"energy": E} (the lock is checked against the potential's
    labels plus small vectors) or {"label": n} / {"label_index": i} with the
    gap edge located by an ITP search on the reduced constant's trace;
    {"edge": "upper"|"lower"} selects the edge (default upper).  For an edge
    target the result's ``edge_search`` holds the number of reductions the
    search made and the failed ones it counted as outside the gap.
    """
    params = params or KamParams()
    alpha_arr = np.atleast_1d(np.asarray(alpha, float))
    relaxations = []
    if params.relaxed:
        relaxations.append("relaxed desk-scale thresholds in effect")

    if "energy" in target:
        E = float(target["energy"])
        rho = rotation_number(schrodinger_cocycle(V, E, alpha=alpha_arr),
                              iters=ROTATION_ITERS, phase_samples=3,
                              seed=params.seed).rho
        label = _find_lock(rho, alpha_arr, V, params)
        if label is None:
            raise TargetNotLocked(
                f"2 rho = {2 * rho:.8f} is not <n, alpha> mod 1 within "
                f"{LOCK_TOL:.1e} for any candidate label")
        state, reports = _reduce_at_energy(V, alpha_arr, E, params, max_steps)
        return _finalize(V, alpha_arr, E, label, state, reports, params, relaxations)

    if "label" in target or "label_index" in target:
        if "label_index" in target:
            label = tuple(V.labels[int(target["label_index"])])
        else:
            lab = target["label"]
            label = (int(lab),) if np.isscalar(lab) else tuple(int(x) for x in lab)
        edge = target.get("edge", "upper")
        E_edge, state, reports, search = _locate_edge(V, alpha_arr, label, edge,
                                                      params, max_steps)
        result = _finalize(V, alpha_arr, E_edge, label, state, reports, params, relaxations)
        result.edge_search = search
        return result

    raise QpslError("target must contain 'energy', 'label' or 'label_index'")


def _find_lock(rho, alpha, V, params):
    cands = [(0,) * alpha.size]
    if V is not None:
        cands += [tuple(int(x) for x in lab) for lab in V.labels]
        cands += [tuple(-int(x) for x in lab) for lab in V.labels]
    for k in range(1, 5):
        for s in (1, -1):
            cands.append(tuple(s * k if i == 0 else 0 for i in range(alpha.size)))
    best, best_n = math.inf, None
    for n in cands:
        v = dist_to_integers(2 * rho - float(np.dot(n, alpha)))
        if v < best:
            best, best_n = v, n
    return best_n if best < LOCK_TOL else None


def _locate_edge(V, alpha, label, edge, params, max_steps):
    """Locate the gap edge on the reduced-trace indicator t = |Re a| - 1.

    A point inside the gap (t > 0) is found near the free-cocycle guess and
    stepped outward until t <= 0.  An ITP search (Oliveira and Takahashi,
    ACM TOMS 2020) then shrinks [E_in, E_out] to 4e-16 relative width; it
    takes a plain bisection step while either endpoint value is not finite.
    Returns the innermost t > 0 energy with its state and reports, and the
    search record {"evaluations": n, "failures": [[type, E], ...]}, where a
    failure is a reduction that raised and was counted as outside the gap.
    Raises NonConvergence, with the record as its ``edge_search``, when the
    outer end of the final bracket is such a failure: the edge is then
    ambiguous, since the failure may lie just outside the gap or inside it,
    and the search cannot tell the two apart.
    """
    lock = dist_to_integers(float(np.dot(label, alpha)) / 2)
    E0 = 2 * math.cos(2 * math.pi * lock)
    spread = max(4 * (V.sup_bound() if V is not None else 0.1), 1e-3)
    search = {"evaluations": 0, "failures": []}

    def indicator(E):
        # a failed reduction (stalled Newton sweep, small divisor, constant
        # part not settling) counts as "outside the gap" for the bracket; it
        # may also happen inside, so it is recorded on the search
        search["evaluations"] += 1
        try:
            st, reps = _reduce_at_energy(V, alpha, E, params, max_steps)
        except (NewtonDiverged, StateInvalid, SmallDivisor, NotElliptic) as exc:
            search["failures"].append([type(exc).__name__, E])
            return -math.inf, None, None
        return _gap_indicator(st), st, reps

    # find a point inside the gap near the free-cocycle guess
    E_in = E0
    t_in, state, reports = indicator(E0)
    if t_in <= 0:
        for frac in np.linspace(-1, 1, 41):
            E_try = E0 + frac * spread * 0.25
            t, st, reps = indicator(E_try)
            if t > 0:
                E_in, t_in, state, reports = E_try, t, st, reps
                break
        else:
            raise TargetNotLocked(
                f"no gap interior found near E = {E0:.6f} for label {label}")

    sign = +1.0 if edge == "upper" else -1.0
    delta = spread / 64
    for _ in range(40):
        E_out = E_in + sign * delta
        t_out, st, reps = indicator(E_out)
        if t_out <= 0:
            break
        E_in, t_in, state, reports = E_out, t_out, st, reps
    else:
        raise NonConvergence(f"could not bracket the {edge} edge from E = {E_in}")

    # ITP with k1 = 0.2 / width0, k2 = 2, n0 = 1; eps is half the terminal width
    width0 = abs(E_out - E_in)
    eps = 2e-16 * max(1.0, abs(E_in))
    n_max = math.ceil(math.log2(width0 / (2 * eps))) + 1
    for j in range(200):
        mid = 0.5 * (E_in + E_out)
        width = abs(E_out - E_in)
        if width < 4e-16 * max(1.0, abs(mid)):
            break
        E = mid
        if math.isfinite(t_in) and math.isfinite(t_out):
            E_f = E_in + t_in * (E_out - E_in) / (t_in - t_out)  # regula falsi
            toward = math.copysign(1.0, mid - E_f)
            # t is rounded to half an ulp of 1.0 (2**-53), so the secant root
            # is known only to the width over which the secant moves that much
            shift = max(0.2 / width0 * width ** 2, 2.0 ** -53 * width / (t_in - t_out))
            E_t = E_f + toward * shift if shift <= abs(mid - E_f) else mid
            r = max(0.0, eps * 2.0 ** (n_max - j) - width / 2)
            E = E_t if abs(E_t - mid) <= r else mid - toward * r
            if not min(E_in, E_out) < E < max(E_in, E_out):
                E = mid
        t, st, reps = indicator(E)
        if t > 0:
            E_in, t_in, state, reports = E, t, st, reps
        else:
            E_out, t_out = E, t
    if t_out == -math.inf:
        # the bracket closed on a failed reduction, which may be the edge or
        # the boundary of a failing window inside the gap; that failure is the
        # last one recorded, since every failure becomes E_out
        kind, E_fail = search["failures"][-1]
        exc = NonConvergence(
            f"{edge} edge search ended on a failed reduction ({kind} at "
            f"E = {E_fail!r}) after {search['evaluations']} evaluations")
        exc.edge_search = search
        raise exc
    return E_in, state, reports, search


def _finalize(V, alpha, E, label, state, reports, params, relaxations):
    A_fin = np.asarray(state.A, complex)
    psl_sign = 1
    if A_fin[0, 0].real < 0:
        A_fin = -A_fin
        psl_sign = -1
        relaxations.append("final constant taken modulo the PSL(2,R) sign")
    re_a = A_fin[0, 0].real
    unip_tol = max(1e-7, 10 * abs(re_a - 1.0))
    form = parabolic_normalize(A_fin, tol=unip_tol)
    zeta = form.zeta
    phi = form.phi
    b_final = complex(A_fin[0, 1])

    # assemble B(theta) = M^{-1} Z(theta) M R_phi on the doubled torus
    R = rotation_matrix(phi)
    B = state.Dinv.map_values(lambda v: M_CONJ_INV @ v @ M_CONJ @ R, kind="sl2r")

    # certify against the original cocycle
    rng = np.random.default_rng(params.seed + 99)
    pts = rng.uniform(0, 4 * math.pi, size=(params.probe_count, alpha.size))
    coc = schrodinger_cocycle(V, E, alpha=alpha)
    S = coc.matrix_batch(pts)
    step = 2 * math.pi * alpha
    Bf = B.sample(pts + step[None, :])
    Bb = B.sample(pts)
    Bf_inv = np.linalg.inv(Bf)
    got = np.einsum("mij,mjk,mkl->mil", Bf_inv, S, Bb)
    C = np.array([[1.0, zeta], [0.0, 1.0]])
    res_plus = np.max(np.abs(got - C))
    res_minus = np.max(np.abs(got + C))
    conj_residual = float(min(res_plus, res_minus))

    n_norm = sup_norm(label) if label is not None and any(label) else None
    window = {}
    if n_norm:
        k, tau = params.k_exponent, params.tau
        lower = n_norm ** (-(k + 5 * tau))
        upper = n_norm ** (-(k - 62 * tau)) if k > 62 * tau else math.inf
        window = {"lower": lower, "upper": upper,
                  "inside": bool(lower <= abs(zeta) <= upper),
                  "asserted": not params.relaxed}
        if not params.relaxed and not window["inside"]:
            raise QpslError(
                f"strict mode: |zeta| = {abs(zeta):.3e} outside "
                f"[{lower:.3e}, {upper:.3e}]")
    k0 = max(0, int(params.k_exponent - 90 * params.tau))
    if k0 == 0:
        relaxations.append("smoothness budget k - 90 tau is not positive at desk scale")

    return ReducibilityResult(B=B, zeta=zeta, k0=k0, conj_residual=conj_residual,
                              energy=E, label=label, reports=reports,
                              psl_sign=psl_sign, zeta_window=window,
                              b_final=b_final, phi=phi,
                              b_ck_norm=B.ck_norm_estimate(k0),
                              relaxations=relaxations)
