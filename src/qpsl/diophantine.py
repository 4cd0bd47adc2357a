"""Continued fractions, Diophantine checks, and resonant denominators.

Frequencies are handled in cycles (fractions of a full turn), so all
small-divisor quantities are distances on R/Z,

    ||x||_{R/Z} = min_{p in Z} |x - p|.

Lattice vectors n in Z^d are always measured with the sup norm
|n| = max_i |n_i|; this convention is used consistently across the package.

Frequency inputs are accepted as decimal strings at user-declared precision
(or floats, or exact ``Fraction``s).  Each input is turned into a certified
rational interval, and the continued-fraction expansion stops with
``PrecisionExhausted`` as soon as the interval can no longer separate floor
candidates.  Convergents are exact Python integers, so deep expansions do not
overflow.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np

from .errors import ExpansionTooShallow, NotInUnitInterval, PrecisionExhausted, QpslError

__all__ = [
    "ContinuedFraction",
    "FrequencyVector",
    "DcReport",
    "ResonantDenominator",
    "cf_expand",
    "dist_to_integers",
    "dc_check",
    "resonant_denominator",
    "golden_mean",
    "sqrt2_minus_1",
    "sup_norm",
]


def sup_norm(n):
    """Sup norm of a lattice vector given as a tuple of ints."""
    return max(abs(int(c)) for c in n)


def mpf_to_fraction(x):
    """Exact Fraction value of an mpmath float, at whatever precision it
    carries (``mpmath.mpf(x)`` would round it to the working precision)."""
    sign, man, exp, _ = x._mpf_
    return Fraction((-1) ** sign * man) * Fraction(2) ** exp


def _to_interval(alpha):
    """Return (lo, mid, hi) Fractions bracketing the declared value of alpha."""
    if isinstance(alpha, (Fraction, int)):
        f = Fraction(alpha)
        return f, f, f
    if isinstance(alpha, str):
        mid = Fraction(alpha)
        s = alpha.strip().lower()
        if "/" in s:
            return mid, mid, mid
        if "e" in s:
            mant, _, exp = s.partition("e")
            places = len(mant.partition(".")[2]) - int(exp)
        else:
            places = len(s.partition(".")[2])
        delta = Fraction(1, 2 * 10 ** max(places, 0))
        return mid - delta, mid, mid + delta
    if isinstance(alpha, mpmath.mpf):
        mid = mpf_to_fraction(alpha)
        delta = Fraction(1, 2 ** (mpmath.mp.prec - 1))
        return mid - delta, mid, mid + delta
    if isinstance(alpha, float):
        mid = Fraction(alpha)
        delta = Fraction(math.ulp(alpha)) / 2
        return mid - delta, mid, mid + delta
    raise TypeError(f"unsupported frequency type {type(alpha)!r}")


def dist_to_integers(x):
    """||x||_{R/Z}: distance from x to the nearest integer, in [0, 1/2].

    Exact for ``Fraction`` input, float otherwise (elementwise for arrays).
    """
    if isinstance(x, np.ndarray):
        frac = x - np.floor(x)
        return np.minimum(frac, 1.0 - frac)
    if isinstance(x, Fraction):
        frac = x - math.floor(x)
        return min(frac, 1 - frac)
    x = float(x)
    frac = x - math.floor(x)
    return min(frac, 1.0 - frac)


@dataclass(frozen=True)
class ContinuedFraction:
    """Continued-fraction data of an irrational alpha in (0, 1).

    ``partial_quotients`` holds a_1..a_depth; ``p`` and ``q`` hold the
    convergent numerators/denominators p_0..p_depth, q_0..q_depth produced by

        q_k = a_k q_{k-1} + q_{k-2},  q_0 = 1, q_1 = a_1  (p analogous).
    """

    alpha: Fraction
    alpha_lo: Fraction
    alpha_hi: Fraction
    partial_quotients: tuple
    p: tuple
    q: tuple

    def approx_error(self, k):
        """|q_k alpha - p_k| exactly.

        Coincides with ||q_k alpha||_{R/Z} for k >= 1 (convergents are best
        approximations); at k = 0 they differ when a_1 = 1, and the classical
        two-sided inequality holds for this paired error.
        """
        return abs(self.q[k] * self.alpha - self.p[k])


def cf_expand(alpha, depth):
    """Expand alpha in (0,1) to `depth` partial quotients with exact convergents.

    Raises ``NotInUnitInterval`` for alpha outside (0,1) and
    ``PrecisionExhausted`` when the declared precision cannot certify the next
    partial quotient (or the remainder vanishes, i.e. alpha is rational).
    """
    if depth < 1:
        raise QpslError("depth must be >= 1")
    lo, mid, hi = _to_interval(alpha)
    if not (0 < lo and hi < 1):
        raise NotInUnitInterval(f"alpha must lie strictly inside (0,1), got {alpha}")

    a_list = []
    p = [0, None]
    q = [1, None]
    exact = lo == hi
    x_lo, x_hi = lo, hi
    for k in range(1, depth + 1):
        if exact and x_hi == 0:
            raise PrecisionExhausted(
                f"remainder vanished before level {k}: alpha is rational",
                reason="rational", level=k)
        if x_hi <= 0 or x_lo <= 0:
            raise PrecisionExhausted(
                f"declared precision exhausted before level {k} "
                f"(need roughly {math.ceil(0.43 * depth) + 10} decimal digits "
                f"for depth {depth} in the worst case)",
                reason="ambiguous", level=k)
        y_lo, y_hi = 1 / x_hi, 1 / x_lo
        fa, fb = math.floor(y_lo), math.floor(y_hi)
        if fa != fb:
            raise PrecisionExhausted(
                f"cannot certify partial quotient a_{k}: floor candidates {fa} != {fb}",
                reason="ambiguous", level=k)
        a_k = fa
        a_list.append(a_k)
        if k == 1:
            p[1], q[1] = 1, a_k
        else:
            p.append(a_k * p[-1] + p[-2])
            q.append(a_k * q[-1] + q[-2])
        x_lo, x_hi = y_lo - a_k, y_hi - a_k
    # a holds a_1..a_depth; convergents are reported through index depth-1,
    # matching the convention that depth levels yield depth denominators
    return ContinuedFraction(alpha=mid, alpha_lo=lo, alpha_hi=hi,
                             partial_quotients=tuple(a_list),
                             p=tuple(p[:depth]), q=tuple(q[:depth]))


@dataclass(frozen=True)
class FrequencyVector:
    """Rationally independent frequency vector with a Diophantine budget.

    ``components`` are exact Fractions standing in for the declared decimal
    inputs; ``raw`` keeps the original inputs so that continued-fraction
    expansions retain the declared-precision interval.  ``dc_gamma`` and
    ``dc_tau`` are the (gamma, tau) the caller intends to verify with
    :func:`dc_check`.
    """

    components: tuple
    dc_gamma: float = 0.5
    dc_tau: float = 1.5
    raw: tuple = None

    def __post_init__(self):
        comps = tuple(Fraction(c) if not isinstance(c, Fraction) else c for c in self.components)
        object.__setattr__(self, "components", comps)
        if self.raw is None:
            object.__setattr__(self, "raw", comps)

    @property
    def d(self):
        return len(self.components)

    def floats(self):
        return np.array([float(c) for c in self.components])

    def exact_pairing(self, n):
        """<n, alpha> as an exact Fraction of the declared midpoints, n a tuple."""
        return sum((int(ni) * ci for ni, ci in zip(n, self.components)), Fraction(0))

    def cf(self, depth, component=0):
        return cf_expand(self.raw[component], depth)


def frequency_vector(components, gamma=0.5, tau=1.5):
    """Build a FrequencyVector, checking each component is in (0,1) and
    irrational to working precision (no remainder of its first 12 partial
    quotients vanishes).
    """
    if isinstance(components, (str, float, Fraction, mpmath.mpf)):
        components = (components,)
    parsed = []
    for c in components:
        lo, mid, hi = _to_interval(c)
        if not (0 < lo and hi < 1):
            raise NotInUnitInterval(f"component {c} outside (0,1)")
        try:
            cf_expand(c, 12)
        except PrecisionExhausted as e:
            if e.reason == "rational":
                raise QpslError(f"component {c} is rational at declared precision") from e
            # ambiguous is fine: irrational as far as the precision can tell
        parsed.append(mid)
    return FrequencyVector(components=tuple(parsed), dc_gamma=gamma, dc_tau=tau,
                           raw=tuple(components))


@dataclass
class DcReport:
    holds: bool
    worst_n: tuple
    worst_value: float
    gamma: float
    tau: float
    max_norm: int


def dc_check(alpha: FrequencyVector, max_norm, gamma=None, tau=None):
    """Verify ||<n,alpha>||_{R/Z} >= gamma |n|^(-tau) for all 0 < |n| <= max_norm.

    |n| is the sup norm.  The report carries the n minimizing the margin
    ||<n,alpha>|| * |n|^tau / gamma together with its distance value.
    """
    gamma = alpha.dc_gamma if gamma is None else gamma
    tau = alpha.dc_tau if tau is None else tau
    if max_norm < 1:
        raise QpslError("max_norm must be >= 1")
    comps = [float(c) for c in alpha.components]
    holds = True
    worst_margin = math.inf
    worst = (None, None)
    rng = range(-max_norm, max_norm + 1)
    for n in itertools.product(rng, repeat=len(comps)):
        norm = sup_norm(n)
        if norm == 0:
            continue
        value = dist_to_integers(sum(ni * ci for ni, ci in zip(n, comps)))
        margin = value * norm ** tau / gamma
        if margin < 1:
            holds = False
        if margin < worst_margin:
            worst_margin = margin
            worst = (n, value)
    return DcReport(holds=holds, worst_n=worst[0], worst_value=worst[1],
                    gamma=gamma, tau=tau, max_norm=max_norm)


@dataclass(frozen=True)
class ResonantDenominator:
    """Output of the resonant-denominator search: q = m * q_nj with
    q in [21 ell/20, 41 ell/20] and ||q alpha|| < 3 / q_nj."""

    q: int
    q_nj: int
    dist: float
    bound: float


def resonant_denominator(cf: ContinuedFraction, ell):
    """Find a near-resonant multiple of the bracketing convergent
    denominator inside [21 ell/20, 41 ell/20] whose distance to Z beats 3/q_nj.

    ``q_nj`` is the convergent denominator with q_nj < ell <= q_{nj+1}.
    """
    ell = Fraction(ell) if not isinstance(ell, Fraction) else ell
    q = cf.q
    if ell <= q[1]:
        raise QpslError(f"ell must exceed q_1 = {q[1]}")
    idx = None
    for i in range(len(q) - 1):
        if q[i] < ell <= q[i + 1]:
            idx = i
            break
    if idx is None:
        raise ExpansionTooShallow(
            f"no convergent bracket q_n < ell <= q_(n+1) for ell={float(ell):.6g}; "
            f"deepest q = {q[-1]}")
    qn = q[idx]
    bound = Fraction(3, qn)
    m_lo = math.ceil(Fraction(21, 20) * ell / qn)
    m_hi = math.floor(Fraction(41, 20) * ell / qn)
    width = cf.alpha_hi - cf.alpha_lo
    for m in range(m_lo, m_hi + 1):
        cand = m * qn
        d = dist_to_integers(cand * cf.alpha)
        radius = cand * width / 2
        if d + radius < bound:
            return ResonantDenominator(q=cand, q_nj=qn, dist=float(d), bound=float(bound))
        if d - radius < bound <= d + radius:
            raise PrecisionExhausted(
                f"cannot certify ||q alpha|| < 3/q_nj at q={cand}: interval straddles the bound",
                reason="ambiguous")
    raise QpslError(
        f"no multiple of q_nj={qn} in [{float(Fraction(21, 20) * ell):.6g}, "
        f"{float(Fraction(41, 20) * ell):.6g}] meets ||q alpha|| < 3/q_nj")


def golden_mean(digits=60):
    """(sqrt(5)-1)/2 as a decimal string with `digits` digits after the point."""
    with mpmath.workdps(digits + 10):
        val = (mpmath.sqrt(5) - 1) / 2
        return mpmath.nstr(val, digits, strip_zeros=False)


def sqrt2_minus_1(digits=60):
    """sqrt(2)-1 as a decimal string with `digits` digits after the point."""
    with mpmath.workdps(digits + 10):
        val = mpmath.sqrt(2) - 1
        return mpmath.nstr(val, digits, strip_zeros=False)
