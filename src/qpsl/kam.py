"""Reducibility iteration for SU(1,1) cocycles over Diophantine rotations.

The cocycle is kept in the normal form (alpha, A_j e^{f_j} prod_p e^{V_p W_j}):
a constant elliptic part A_j, a small su(1,1) remainder f_j, and the not yet
consumed potential modes V_p conjugated along by the accumulated change of
variables.  One step removes every non-resonant Fourier mode of the current
perturbation by a quadratically convergent Newton iteration.  Every step
works in the eigenframe of A_j = P^{-1} D P, D = diag(e^{2 pi i sigma}, e^{-2
pi i sigma}), and conjugates by B = L e^Y P, inverted by its adjugate: L =
P^{-1} returns a non-resonant step to the frame of A_j, while a resonant
step's half-period rotation L = Q excises the resonant site (it lives on the
doubled torus) and restarts with a much smaller constant rotation.

su(1,1)-valued series are stored as a pair of scalar series (u, w) via
W(theta) = [[i u, w], [conj w, -i u]]; the homological equation is then
diagonal in coefficient space with divisors e^{2 pi i <n,alpha>} - 1 on the
diagonal component and e^{2 pi i (<n,alpha> - 2 sigma)} - 1 off the diagonal,
sigma being the angle (in cycles) of the diagonalized constant.

The Newton sweep holds each SU(1,1) matrix [[A, B], [conj B, conj A]] on the
grid as the pair (A, B) of its row 0, and forms only row 0 of its products,
in the closed form of :func:`qpsl.cocycle.pair_product`; the diagonal
conjugation by the constant is a phase on B.
Its grid is sized by the content it must resolve: it starts at grid_for(4 deg
F), and the call restarts on twice the grid when a sweep's F' passes degree
grid / 4 (each sweep's Y has the modes of the F it solves for), up to the
grid of the degree cap, where nothing is checked.  Every grid transform runs
on the lattice of its inputs' content: for g the largest divisor of the grid
size G dividing every key of their nonzero modes (16 for criterion 11's one
label 16), it takes one period, G / g points per axis, with spectra on the
multiples of g; g is chosen by :func:`qpsl.fourier.lattice_values` and by the
sweep, whose iterate stays the stack of its centred (u, w) blocks of
half-width G / (2 g) in lattice keys as the forward FFT fills them (u's
+G/(2g) modes stay apart from its -G/(2g) ones), with the tables over their
keys built once per call and grid.

A reduction is labelled by the resonance n~ its resonant steps accumulate:
at an edge of the gap of label n, n~ = +-n (gap labelling, 2 rho = <n,
alpha> mod 1).

Every accepted step, and the final reduction to the normal form, is certified
by evaluating both sides of its conjugation identity at random probe points;
these residuals, against ``conj_residual_tol``, are the correctness gates.

The iteration runs in one regime, at desk-scale thresholds: the paper's
smallness hypotheses need k of order hundreds of tau, which no floating-point
run reaches.  :meth:`KamParams.strict_unmet` lists the hypotheses a run misses.

Settings no caller varies are module constants: the strip width H0 * H_DECAY^j
of step j, the Newton stop NEWTON_TOL and cap NEWTON_MAX_SWEEPS, the norm
STOP_TOL below which a perturbation counts as removed, the number of random
probes PROBE_COUNT of each residual, the divisor floor DIVISOR_FLOOR and the
desk-scale resonance threshold RESONANCE_THRESHOLD (ell_j^{-4 tau} falls
below it from ell_j = 20^{1/(4 tau)} on).  Everything a caller sets is on
:class:`KamParams`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cocycle import (
    conjugacy_residual,
    diagonalize_su11,
    rotation_matrix,
    su11_element,
    su11_exp,
    su11_exp_pair,
    _adjugate,
    _su11_log_pair,
    pair_product,
    to_su11,
    M_CONJ,
    M_CONJ_INV,
    parabolic_normalize,
)
from .diophantine import dist_to_integers, sup_norm
from .edge import locate_edge, recorded
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
    dilate,
    grid_spectra,
    grid_values,
    key_grid,
    lattice,
    lattice_values,
    multiply,
    potential_modes,
    series_from_grid,
    shift_phases,
    shift_sum,
    stack_blocks,
)

__all__ = [
    "Su11Series", "KamParams", "KamState", "StepReport", "ReducibilityResult",
    "ModeRule", "classify_resonance", "solve_homological", "remove_nonresonant",
    "kam_step", "compute_diagnostics", "run_reducibility",
]

_W0_SL2 = np.array([[0.0, 0.0], [1.0, 0.0]])


# ---------------------------------------------------------------------------
# su(1,1)-valued series as a (u, w) pair of scalar series


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

    @staticmethod
    def from_blocks(d, blocks):
        """The series of stacked centred (u, w) blocks (not copied)."""
        return Su11Series(FourierSeries.from_block(d, blocks[0]),
                          FourierSeries.from_block(d, blocks[1]))

    def blocks(self, K=None):
        """The (u, w) blocks padded to half-width K (default the wider) and
        stacked."""
        return stack_blocks([self.u, self.w], K)

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

    def sample(self, pts):
        return su11_element(self.u.sample(pts).real, self.w.sample(pts))

    def prune(self, tol):
        self.u.prune(tol)
        self.w.prune(tol)
        return self

    def ad_constant(self, P):
        """Ad(P) W = P W P^{-1} coefficientwise (P a constant SU(1,1) matrix)."""
        u, w = self.blocks()
        C = np.empty(u.shape + (2, 2), complex)
        C[..., 0, 0] = 1j * u
        C[..., 0, 1] = w
        C[..., 1, 0] = np.conj(np.flip(w))
        C[..., 1, 1] = -1j * u
        Cp = P @ C @ _adjugate(P)
        return Su11Series(self.u._like(-1j * Cp[..., 0, 0]), self.w._like(Cp[..., 0, 1]))

    def shift_w(self, delta):
        """Ad of the half-period rotation with site -delta: w-modes move by
        +delta, u unchanged."""
        return Su11Series(self.u.copy(), shift_sum(self.w, [delta], [1.0]))


def _su11_spectra(values, d, max_degree, K=None, stride=1):
    """Stacked samples (u (real), w) on the standard grid (or on its lattice
    of ``stride``) -> the stacked centred (u, w) blocks of
    :func:`grid_spectra`, modes of norm <= 1e-16 pruned, u projected onto
    real-valued functions (Hermitian coefficients), and the dropped masses."""
    blocks, dropped = grid_spectra(values, d, max_degree=max_degree,
                                   prune_tol=1e-16, K=K, stride=stride)
    blocks[0] = (blocks[0] + np.conj(np.flip(blocks[0]))) / 2
    return blocks, dropped


def su11_series_from_samples(uu, ww, d, max_degree=None, stride=1):
    """Samples of u (real) and w on the standard grid (or on its lattice of
    ``stride``, from lattice_values) -> (u, w) series, by one forward FFT."""
    blocks, dropped = _su11_spectra(np.stack([uu, ww]), d, max_degree, stride=stride)
    out = Su11Series.from_blocks(d, dilate(blocks, stride, d))
    out.u.dropped_mass, out.w.dropped_mass = dropped
    return out


def exp_series(Y: Su11Series, grid, max_degree):
    """e^{Y(theta)} as a matrix-valued series via the grid transform, on the
    lattice of Y's content."""
    (uu, ww), g = lattice_values([Y.u, Y.w], grid)
    return series_from_grid(su11_exp(su11_element(uu.real, ww)), Y.d, kind="matrix",
                            max_degree=max_degree, prune_tol=1e-16, stride=g)


# ---------------------------------------------------------------------------
# parameters and state


# Fixed settings of the iteration (see the module docstring).
H0 = 0.05                  # strip width of step 0 ...
H_DECAY = 0.75             # ... shrinking by this factor per step
NEWTON_TOL = 1e-14         # Newton stops at this fraction of the input norm
NEWTON_MAX_SWEEPS = 16
STOP_TOL = 1e-12           # a perturbation of this norm counts as removed
PROBE_COUNT = 12           # random probes of each conjugacy residual
DIVISOR_FLOOR = 1e-9       # smallest divisor the homological solve accepts
RESONANCE_THRESHOLD = 5e-2 # a site nearer than this to 2 sigma may be resonant


@dataclass
class KamParams:
    """Run parameters; the fixed settings are the module constants."""

    tau: float = 1.5
    k_exponent: float = 2.0
    schedule: object = None
    max_degree: int = 384
    grid_size: int = 2048
    conj_residual_tol: float = 1e-9
    seed: int = 0

    def width(self, j):
        return H0 * H_DECAY ** j

    def window(self, j):
        if self.schedule is not None:
            ell_next = self.schedule.level_float(j + 1)
            if math.isfinite(ell_next):
                return int(min(self.max_degree, max(8, 2 * ell_next)))
        return self.max_degree

    def strict_unmet(self):
        """The hypotheses of the paper's regime that this run misses (empty
        when it meets them all): a bounded zeta window and a smoothness budget
        k0, as :func:`_finalize` computes them, and a strict schedule."""
        k, tau = self.k_exponent, self.tau
        unmet = []
        if k <= 62 * tau:
            unmet.append(f"k = {k:g} <= 62 tau = {62 * tau:g}: the zeta window is unbounded")
        if k - 90 * tau < 1:
            unmet.append(f"k - 90 tau = {k - 90 * tau:g} < 1: there is no smoothness "
                         f"budget k0")
        if not getattr(self.schedule, "strict", False):
            unmet.append("the label set's schedule was not built with build-set --strict")
        return unmet

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

    ``rho`` is in cycles.  Returns the minimizing site; several sites under
    the threshold flag ``unique=False`` (the winner is still the minimizer).
    """
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

    def resonant(self, keys):
        """Masks (u, w) over keys (..., d): true where the mode stays in the
        resonant part."""
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
        """(non-resonant part, resonant part) of F."""
        K = max(F.u.K, F.w.K)
        resonant, blocks = np.stack(self.resonant(key_grid(K, F.d))), F.blocks(K)
        return (Su11Series.from_blocks(F.d, np.where(resonant, 0, blocks)),
                Su11Series.from_blocks(F.d, np.where(resonant, blocks, 0)))


def divisor_w(n, alpha, sigma):
    """e^{2 pi i (<n, alpha> - 2 sigma)} - 1 for a key n, or over keys (..., d)."""
    return np.exp(2j * np.pi * (np.asarray(n) @ np.asarray(alpha, float) - 2.0 * sigma)) - 1.0


def _mode_divisors(keys, alpha, sigma):
    """The divisors of the homological equation over keys (..., d), stacked
    (u, w): e^{2 pi i <n, alpha>} - 1 and e^{2 pi i (<n, alpha> - 2 sigma)} - 1."""
    return np.stack([divisor_w(keys, alpha, 0.0), divisor_w(keys, alpha, sigma)])


def _divide(blocks, divisors, keys, floor):
    """The homological solve on stacked centred (u, w) blocks over ``keys``:
    Y = -F / divisor mode by mode.  Raises SmallDivisor at the first supported
    mode whose divisor modulus is below ``floor``, u before w, each in the C
    order of its keys."""
    support = blocks != 0
    small = support & (np.abs(divisors) < floor)
    if small.any():
        c, *i = np.argwhere(small)[0]
        raise SmallDivisor(tuple(keys[tuple(i)].tolist()),
                           float(abs(divisors[(c, *i)])), floor)
    return -blocks / np.where(support, divisors, 1.0)


def solve_homological(A, F_nre: Su11Series, alpha, floor=1e-12, sigma=None):
    """Solve A^{-1} Y(.+alpha) A - Y = -F_nre for diagonal A, mode by mode.

    ``A`` must be diagonal (pass sigma directly to skip the check); raises
    SmallDivisor when a supported mode has divisor modulus below ``floor``.
    The Newton sweep of :func:`remove_nonresonant` runs the same solve on
    its blocks.
    """
    if sigma is None:
        A = np.asarray(A, complex)
        if abs(A[0, 1]) + abs(A[1, 0]) > 1e-12:
            raise QpslError("solve_homological expects a diagonal constant part")
        sigma = (float(np.angle(A[0, 0])) / (2 * math.pi)) % 1.0
    alpha = np.atleast_1d(np.asarray(alpha, float))
    K = max(F_nre.u.K, F_nre.w.K)
    keys = key_grid(K, F_nre.d)
    Y = _divide(F_nre.blocks(K), _mode_divisors(keys, alpha, sigma), keys, floor)
    return Su11Series.from_blocks(F_nre.d, Y)


def _blocks_norm(blocks, sup, weights):
    """|u|_h + |w|_h of stacked centred (u, w) blocks, given over their slots
    the sup norm of the block key (``sup``) and e^{|n| h} (``weights``), n the
    frequency.  Each sum runs over its block trimmed to its nonzero modes, as
    :meth:`FourierSeries.analytic_norm` sums it (bit for bit on ordinary keys)."""
    K = (blocks.shape[1] - 1) // 2
    terms = np.hypot(blocks.real, blocks.imag) * weights
    norm = 0.0
    for t, k in zip(terms, np.where(blocks != 0, sup, 0).reshape(2, -1).max(axis=1)):
        norm += float(np.sum(np.ascontiguousarray(t[(slice(K - k, K + k + 1),) * t.ndim])))
    return norm


def _min_divisor_distance(alpha, N, d):
    """min ||<n, alpha>|| over 0 < |n| <= N."""
    keys = key_grid(N, d).reshape(-1, d)
    vals = dist_to_integers(np.abs(keys @ np.atleast_1d(np.asarray(alpha, float))))
    return float(np.min(vals[(keys != 0).any(axis=1)]))


def remove_nonresonant(A, F: Su11Series, eta, h, alpha, rule: ModeRule,
                       params: KamParams):
    """Newton iteration conjugating (alpha, A e^F) to (alpha, A e^{F*}) with
    F* supported on the resonant complement of the mode rule, for a diagonal
    constant A = diag(e^{2 pi i sigma}, e^{-2 pi i sigma}) only (the caller
    works in the eigenframe of its constant); any other A raises QpslError.

    Returns (Y, F_star, report).  The conjugator is e^Y with
    e^{Y(.+alpha)} A e^{F} e^{-Y} = A e^{F*}; the caller certifies it (kam_step
    checks the step identity at random probes).  eta is the divisor floor
    passed to the mode-by-mode solves.  The report holds ``sweeps``, the
    non-resonant norm before each sweep, ``dropped_mass``, the coefficient
    mass the sweeps dropped, ``grid``, the grid they ran on (sized by their
    content, see the module docstring), and ``stride``, the stride g of the
    lattice of F's keys they ran on, which every sweep keeps its content on.

    The iterate stays a stack of centred (u, w) blocks of half-width G / (2 g)
    in lattice keys (the input's, if wider) until the exit expands F* and Y
    to ordinary keys; the resonance masks, divisors, shift phases and norm
    weights over its keys are built once per call and grid.  Each sweep does
    the float operations of ``rule.split``, :meth:`Su11Series.norm` and
    :func:`solve_homological` in their order.
    """
    alpha = np.atleast_1d(np.asarray(alpha, float))
    A = np.asarray(A, complex)
    d = F.d

    if abs(A[0, 1]) + abs(A[1, 0]) >= 1e-13:
        raise QpslError("remove_nonresonant expects a diagonal constant part")
    theta = float(np.angle(A[0, 0])) % (2 * math.pi)
    sigma = theta / (2 * math.pi)
    # Ad^-1 M Ad, Ad = A, keeps row 0's A and turns its B by e^{-2 i theta}
    turn = np.exp(-2j * theta)

    scale = max(F.norm(h), 1e-300)
    max_deg = params.max_degree
    # the grid is sized by its content (see the module docstring); at the
    # criterion-11 edge, series below degree 96, 256 and 512 points reproduce
    # the cap grid's step residual (5.9e-15 against 6.0e-15), while a fixed
    # 128 points aliases it to 2.4e-10, inside the 1e-9 gate
    cap = params.grid_for(max_deg, d)
    grid = params.grid_for(4 * int(F.degree()), d)

    while True:
        g = math.gcd(grid, F.u.stride, F.w.stride)
        K = max(grid // g // 2, F.u.K // g, F.w.K // g)  # in lattice keys
        keys = key_grid(K, d) * g
        sup = np.abs(key_grid(K, d)).max(axis=-1)
        weights = np.exp(g * sup * 1.0 * h)
        resonant = np.stack(rule.resonant(keys))
        divisors = _mode_divisors(keys, alpha, sigma)
        phases = shift_phases(keys, alpha)
        blocks, degree = lattice(F.blocks(g * K), g, d), F.degree()
        E_acc, sweeps, dropped = None, [], 0.0
        for it in range(NEWTON_MAX_SWEEPS):
            nre = np.where(resonant, 0, blocks)
            nre_norm = _blocks_norm(nre, sup, weights)
            sweeps.append(nre_norm)
            if nre_norm <= NEWTON_TOL * scale:
                break
            if it >= 2 and nre_norm > 0.5 * sweeps[-2] and nre_norm > NEWTON_TOL * scale * 10:
                raise NewtonDiverged(
                    f"non-resonant norm stalled at {nre_norm:.3e} (sweep {it})")
            Y = _divide(nre, divisors, keys, eta)
            # e^{Y(.+alpha)} A' e^{g} e^{-Y} = A' e^{g'}, each SU(1,1) matrix
            # held as its row 0 (A, B); e^{-Y} is the adjugate (conj A, -B)
            vals = grid_values(np.concatenate([Y, phases * Y, blocks]), grid // g, d)
            # an overflowing sweep is reported by the finite check alone
            with np.errstate(over="ignore", invalid="ignore"):
                E_here, E_fwd, Gv = zip(*su11_exp_pair(vals[0::2].real, vals[1::2]))
                prod = pair_product((E_fwd[0], E_fwd[1] * turn), Gv,
                                    (np.conj(E_here[0]), -E_here[1]))
            if not np.isfinite(prod).all():
                raise NewtonDiverged(f"non-finite sweep values (sweep {it})")
            try:
                log = _su11_log_pair(*prod)
            except QpslError as exc:  # a rotation angle reached pi
                raise NewtonDiverged(f"{exc} (sweep {it})") from exc
            blocks, (drop_u, drop_w) = _su11_spectra(np.stack(log), d, max_deg, K, g)
            degree = g * int(np.where(blocks != 0, sup, 0).max())
            if grid < cap and degree > grid / 4:
                break
            dropped += drop_u + drop_w
            E_acc = E_here if E_acc is None else pair_product(E_here, E_acc)
        else:
            nre_norm = _blocks_norm(np.where(resonant, 0, blocks), sup, weights)
            if nre_norm > NEWTON_TOL * scale * 100:
                raise NewtonDiverged("Newton sweep cap reached without contraction")
        if grid == cap or degree <= grid / 4:
            break
        grid = min(2 * grid, cap)

    if E_acc is None:
        Y = Su11Series.zero(d)
    else:
        Y = su11_series_from_samples(*_su11_log_pair(*E_acc), d, max_degree=max_deg,
                                     stride=g)
    F_star = Su11Series.from_blocks(d, dilate(blocks, g, d)).prune(1e-18)
    return Y, F_star, {"sweeps": sweeps, "dropped_mass": dropped, "grid": grid, "stride": g}


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


def _q_series(site, d):
    """Half-period rotation Q(theta) = diag(e^{-i<site,theta>/2}, e^{+i...}),
    a two-coefficient matrix series on the doubled torus."""
    return FourierSeries(d, {tuple(-c for c in site): np.diag([1.0, 0.0]),
                             tuple(site): np.diag([0.0, 1.0])},
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
    vals, g = lattice_values([state.f.u, state.f.w, T.u, T.w], grid)
    E_f, E_t = zip(*su11_exp_pair(vals[0::2].real, vals[1::2]))
    out = su11_series_from_samples(*_su11_log_pair(*pair_product(E_f, E_t)), d,
                                   max_degree=params.max_degree, stride=g)
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
    grid = params.grid_for(int(G.degree()) + 4, d)
    (uu, ww), g = lattice_values([G.u, G.w], grid)
    prod = pair_product((np.conj(E_mean[0, 0]), -E_mean[0, 1]), su11_exp_pair(uu.real, ww))
    return A_next, su11_series_from_samples(*_su11_log_pair(*prod), d,
                                            max_degree=params.max_degree, stride=g)


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
    done = norm_before <= STOP_TOL and not labels
    if done or (not elliptic and norm_before <= max(STOP_TOL * 10, params.conj_residual_tol)):
        report = StepReport(j=j, case="trivial", sigma=None,
                            norm_before=norm_before, norm_after=norm_before,
                            residual=0.0, b_next=complex(state.A[0, 1]))
        # a free step ends the run only when no labels remain
        new_state = KamState(j=j + 1, A=state.A.copy(), f=state.f.copy(),
                             pending=remaining, W=state.W.copy(),
                             Dinv=state.Dinv, alpha=alpha, n_tilde=state.n_tilde,
                             stopped=not (done and remaining))
        return new_state, report
    if not elliptic:
        raise StateInvalid(
            f"constant part not elliptic (Re a = {re_a:.6f}) with perturbation "
            f"{norm_before:.3e} above the stop tolerance")

    P, theta = diagonalize_su11(state.A)
    sigma = theta / (2 * math.pi)
    N = params.window(j)
    dioph_min = _min_divisor_distance(alpha, N, d)
    # the resonant route must absorb every site the Newton sweep cannot solve
    # through (its convergence boundary sits at distance of order sqrt of the
    # perturbation), while staying below RESONANCE_THRESHOLD
    thr = min(RESONANCE_THRESHOLD,
              max(dioph_min / 5, 4.0 * math.sqrt(max(norm_before, 0.0))))
    cls = classify_resonance(sigma, alpha, N, thr)
    site, nr = cls.site, cls.case == "NR"
    rule = ModeRule(alpha=alpha, sigma=sigma, window=N if nr else params.max_degree,
                    diag_floor=min(dioph_min / 2, thr),
                    off_floor=(min(cls.distance / 2, thr) if nr else
                               min(thr, max(cls.distance * 2, DIVISOR_FLOOR * 10))),
                    exclude=site, keep_w_mean=nr)
    # the Newton removal runs in the eigenframe, A_j = P^{-1} D P
    D = np.diag([np.exp(1j * theta), np.exp(-1j * theta)])
    Y, F_star, rep = remove_nonresonant(D, F_t.ad_constant(P), DIVISOR_FLOOR, h, alpha,
                                        rule=rule, params=params)
    # B_step = L e^Y P, and F* and W leave the eigenframe by ``back``: to the
    # frame of A_j (L = P^-1), or onto the doubled torus with the resonant
    # site rotated to frequency zero (L = Q)
    Pinv, W, md = _adjugate(P), state.W.ad_constant(P), params.max_degree
    if nr:
        L, A_base, n_tilde_next = FourierSeries.constant(d, Pinv), state.A, state.n_tilde
        def back(S):
            return S.ad_constant(Pinv).prune(1e-18)
    else:
        L = _q_series(site, d)
        n_tilde_next = tuple(a + b for a, b in zip(state.n_tilde, site))
        phi_new = theta - math.pi * float(np.dot(site, alpha))
        A_base = np.diag([np.exp(1j * phi_new), np.exp(-1j * phi_new)])
        def back(S):
            return S.shift_w(tuple(-c for c in site))
    A_next, f_next = _split_mean(A_base, back(F_star), params)
    E_y = exp_series(Y, params.grid_for(int(Y.degree()) * 2 + 8, d), md)
    W_next = back(_ad_series(E_y, W, params))
    inner = multiply(E_y, FourierSeries.constant(d, P), max_degree=md)
    B_step = multiply(L, inner, max_degree=md)
    dropped = (drop0 + rep["dropped_mass"] + E_y.dropped_mass + inner.dropped_mass
               + B_step.dropped_mass)
    extra = {"y_norm": (Y.ad_constant(Pinv) if nr else Y).norm(h)}
    if nr:  # |Ad(P^-1) Y|_h against 2 |F~|_h / eta
        extra["y_bound_monitor"] = extra["y_norm"] <= 2.0 * norm_before / DIVISOR_FLOOR + 1e-12
    else:
        extra["rotation_shift"] = float(np.dot(site, alpha)) / 2
        if labels:
            # tracked off-diagonal source: the site coefficient of the
            # diagonal-frame potential term P (V W) P^{-1}
            t_hat = complex(shift_sum(W.w, *V_modes, sup_norm(site))[site])
            extra["t_hat_site"] = [t_hat.real, t_hat.imag]
            extra["b_minus_t_hat"] = abs(complex(A_next[0, 1]) - t_hat)
    extra["sweep_grid"], extra["sweep_stride"] = rep["grid"], rep["stride"]

    # certify the step on random probes of the doubled torus, B^-1 = adj B
    rng = np.random.default_rng(params.seed + 7 * j + 3)
    pr = rng.uniform(0, 4 * math.pi, size=(PROBE_COUNT, d))
    Bv = B_step.sample(np.concatenate([pr + 2 * math.pi * alpha[None, :], pr]))
    lhs = Bv[:len(pr)] @ state.A @ su11_exp(F_t.sample(pr)) @ _adjugate(Bv[len(pr):])
    rhs = A_next @ su11_exp(f_next.sample(pr))
    residual = float(np.max(np.abs(lhs - rhs)))
    if residual > params.conj_residual_tol:
        raise StateInvalid(
            f"step {j} conjugacy residual {residual:.3e} exceeds "
            f"{params.conj_residual_tol:.1e}")

    Dinv_next = multiply(state.Dinv, B_step.map_values(_adjugate), max_degree=2 * md)
    dropped += Dinv_next.dropped_mass

    f_next.prune(1e-18)
    diag = compute_diagnostics(W_next, n_tilde_next, params.width(j + 1))
    report = StepReport(
        j=j, case=cls.case, site=site, sigma=sigma,
        norm_before=norm_before, norm_after=f_next.norm(params.width(j + 1)),
        residual=residual, xi=diag["xi"], big_m=diag["M"], small_m=diag["m"],
        b_next=complex(A_next[0, 1]), dropped_mass=dropped,
        site_unique=cls.unique, newton_sweeps=rep["sweeps"],
        diagnostics=extra)
    new_state = KamState(j=j + 1, A=A_next, f=f_next, pending=remaining,
                         W=W_next, Dinv=Dinv_next, alpha=alpha,
                         n_tilde=n_tilde_next)
    return new_state, report


def _ad_series(E: FourierSeries, W: Su11Series, params: KamParams):
    """Ad(E) W = E W E^{-1} for an SU(1,1)-valued matrix series E, inverted
    on the grid by the adjugate of its values; E's four entries and W's
    (u, w) are the rows of one transform."""
    G = params.grid_for(int(2 * E.degree + W.degree()) + 4, W.d)
    entries = [FourierSeries.from_block(W.d, E.block[..., i, j]) for i in (0, 1) for j in (0, 1)]
    vals, g = lattice_values(entries + [W.u, W.w], G)
    E_v = np.stack(vals[:4], axis=-1).reshape(-1, 2, 2)
    vals = E_v @ su11_element(vals[4].real, vals[5]) @ _adjugate(E_v)
    return su11_series_from_samples(vals[:, 0, 0].imag, vals[:, 0, 1], W.d,
                                    max_degree=params.max_degree, stride=g)


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
            "B_series": self.B.as_dict(),
        }

    @staticmethod
    def from_dict(data):
        """The result ``as_dict`` wrote; its step reports stay in ``data``."""
        return ReducibilityResult(
            B=FourierSeries.from_dict(data["B_series"]), zeta=data["zeta"],
            k0=data["k0"], conj_residual=data["conj_residual"], energy=data["energy"],
            label=tuple(data["label"]) if data.get("label") else None, reports=[],
            psl_sign=data.get("psl_sign", 1), zeta_window=data.get("zeta_window", {}),
            b_final=complex(*data["b_final"]), phi=data.get("phi", 0.0),
            b_ck_norm=data.get("b_ck_norm"), relaxations=data.get("relaxations", []),
            edge_search=data.get("edge_search"))


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
                     alpha=alpha, n_tilde=(0,) * d)
    reports = []
    for _ in range(max_steps):
        state, rep = kam_step(state, params)
        reports.append(rep)
        if state.stopped:
            break
        if not state.pending and state.f.norm(params.width(state.j)) <= STOP_TOL:
            break
    return state, reports


def _gap_indicator(state):
    """|Re a| - 1 of the final constant: positive inside a gap (hyperbolic or
    parabolic reduced constant), negative in the spectrum (elliptic)."""
    return abs(float(np.asarray(state.A)[0, 0].real)) - 1.0


def _trace_slope(state):
    """dt/dE of :func:`_gap_indicator` from the reduction's own conjugacy: with
    Z = M^{-1} D^{-1} M, S_E + delta e11 conjugates to A + delta Z(.+alpha)^{-1}
    e11 Z, so tr A moves by delta times the mean of Z22(.+alpha) Z11 -
    Z21(.+alpha) Z12 (det Z = 1), exactly the sum over n of mode n of the
    first factor times mode -n of the second, and t by sign(Re a) / 2 of it.
    The sum runs over the lattice of D^-1's modes only."""
    d, g = state.alpha.size, state.Dinv.stride or 1
    [Dinv] = lattice(state.Dinv.block[None], g, d)
    phases = shift_phases(key_grid((len(Dinv) - 1) // 2, d) * g,
                          state.alpha * (0.5 if state.Dinv.halved else 1.0))
    Z = M_CONJ_INV @ Dinv @ M_CONJ
    Zs = M_CONJ_INV @ (phases.reshape(phases.shape + (1, 1)) * Dinv) @ M_CONJ
    Zr = np.flip(Z, axis=tuple(range(d)))  # mode -n at n
    mean = np.sum(Zs[..., 1, 1] * Zr[..., 0, 0] - Zs[..., 1, 0] * Zr[..., 0, 1])
    return math.copysign(0.5, float(np.asarray(state.A)[0, 0].real)) * float(mean.real)


def run_reducibility(V, alpha, target, params: KamParams = None, max_steps=24):
    """Reduce the Schrodinger cocycle at a locked energy to the parabolic
    normal form [[1, zeta], [0, 1]].

    ``target`` is {"energy": E}, labelled by the reduction's n~ (with the sign
    of V's label when -n~ is one), or {"label": n} / {"label_index": i} with
    the gap edge located by :func:`qpsl.edge.locate_edge` on t = |Re a| - 1
    and n~ = +-label checked; {"edge": "upper"|"lower"} selects the edge
    (default upper).  An energy target raises TargetNotLocked when its
    reduced constant is elliptic, t < -``conj_residual_tol``: E then lies in
    the spectrum.  The edge search starts at the free-cocycle guess E0 = 2
    cos(2 pi ||<n, alpha> / 2||), raises TargetNotLocked after that one
    reduction unless t(E0) > 0, then moves by steps of spread / 64 and roots
    of a quadratic in t and dt/dE (:func:`_trace_slope`); a reduction raising
    NewtonDiverged, StateInvalid, SmallDivisor or NotElliptic counts as
    outside the gap.  The result's ``edge_search`` holds the number of
    reductions, the failed ones [[type, E], ...] and the final bracket.
    Raises TargetNotLocked when the edge's n~ is not +-label (it is another
    label's edge), and NonConvergence when B conjugates the cocycle to the
    normal form only up to a residual above ``params.conj_residual_tol``.
    Every QpslError raised for an edge target carries the search record as
    its ``edge_search``.
    """
    params = params or KamParams()
    alpha_arr = np.atleast_1d(np.asarray(alpha, float))

    if "energy" in target:
        E = float(target["energy"])
        state, reports = _reduce_at_energy(V, alpha_arr, E, params, max_steps)
        t = _gap_indicator(state)
        if t < -params.conj_residual_tol:
            raise TargetNotLocked(f"the reduced constant at E = {E!r} is elliptic (t = "
                                  f"{t:.3e}): E lies in the spectrum, at no gap edge")
        label = tuple(-n for n in state.n_tilde)
        if V is None or label not in map(tuple, V.labels):
            label = state.n_tilde
        return _finalize(V, alpha_arr, E, label, state, reports, params)

    if "label" not in target and "label_index" not in target:
        raise QpslError("target must contain 'energy', 'label' or 'label_index'")
    if "label_index" in target:
        label = tuple(V.labels[int(target["label_index"])])
    else:
        lab = target["label"]
        label = (int(lab),) if np.isscalar(lab) else tuple(int(x) for x in lab)
    edge = target.get("edge", "upper")
    E0 = 2 * math.cos(2 * math.pi * dist_to_integers(float(np.dot(label, alpha_arr)) / 2))
    spread = max(4 * (V.sup_bound() if V is not None else 0.1), 1e-3)
    search = {"evaluations": 0, "failures": []}

    def evaluate(E):
        state, reports = _reduce_at_energy(V, alpha_arr, E, params, max_steps)
        return _gap_indicator(state), (state, reports)

    indicator = recorded(evaluate, (NewtonDiverged, StateInvalid, SmallDivisor, NotElliptic),
                         search)
    try:
        t0, found = indicator(E0)
        if t0 <= 0:
            raise TargetNotLocked(f"the free-cocycle guess E0 = {E0!r} for label {label} "
                                  f"reads t = {t0:.3e}; the search starts only where t > 0")
        E, (state, reports) = locate_edge(indicator, lambda payload: _trace_slope(payload[0]),
                                          E0, t0, found, spread / 64, edge, search)
        if state.n_tilde not in (label, tuple(-n for n in label)):
            raise TargetNotLocked(f"{edge} edge at E = {E!r} locks to n~ = "
                                  f"{state.n_tilde}, not to label {label}")
        result = _finalize(V, alpha_arr, E, label, state, reports, params)
    except QpslError as exc:
        exc.edge_search = search
        raise
    result.edge_search = search
    return result


def _finalize(V, alpha, E, label, state, reports, params):
    """The result at E, certified against the original cocycle."""
    A_fin = np.asarray(state.A, complex)
    psl_sign, relaxations = 1, []
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
    pts = rng.uniform(0, 4 * math.pi, size=(PROBE_COUNT, alpha.size))
    conj_residual = conjugacy_residual(V, alpha, E, B, np.array([[1.0, zeta], [0.0, 1.0]]),
                                       pts)
    if conj_residual > params.conj_residual_tol:
        raise NonConvergence(
            f"conjugacy residual {conj_residual:.3e} of the reduction at E = {E!r} "
            f"exceeds conj_residual_tol {params.conj_residual_tol:.1e}")

    n_norm = sup_norm(label)
    window = {}
    if n_norm:
        k, tau = params.k_exponent, params.tau
        lower = n_norm ** (-(k + 5 * tau))
        upper = n_norm ** (-(k - 62 * tau)) if k > 62 * tau else math.inf
        window = {"lower": lower, "upper": upper,
                  "inside": bool(lower <= abs(zeta) <= upper)}
    k0 = max(0, int(params.k_exponent - 90 * params.tau))
    if k0 == 0:
        relaxations.append("smoothness budget k - 90 tau is not positive at desk scale")

    return ReducibilityResult(B=B, zeta=zeta, k0=k0, conj_residual=conj_residual,
                              energy=E, label=label, reports=reports,
                              psl_sign=psl_sign, zeta_window=window,
                              b_final=b_final, phi=phi,
                              b_ck_norm=B.ck_norm_estimate(k0),
                              relaxations=relaxations)
