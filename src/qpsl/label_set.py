"""Construction and verification of the sparse label set K in Z^d.

The set is built from a doubly exponential growth schedule ell_j = M^((1+s)^j)
and the resonant-denominator search: the m-th entry shifts the m-th vector of
a fixed enumeration of Z^d by (q, 0, ..., 0), where q is a near-resonant
multiple of a convergent denominator of alpha_1 at scale ell_{j_m}.

Levels can exceed float range for honest schedules (s close to 1); they are
kept as mpmath floats, each at its own precision (its integer digits plus
guard digits), and every window-membership test compares the exact integer
|n| with the exact rational value of these bounds.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath

from .diophantine import (
    FrequencyVector,
    dist_to_integers,
    mpf_to_fraction,
    resonant_denominator,
    sup_norm,
)
from .errors import PrecisionExhausted, QpslError, ScheduleTooShort

__all__ = [
    "GrowthSchedule",
    "LabelEntry",
    "LabelSet",
    "VerifyReport",
    "lex_enumerate",
    "ell_star",
    "build_schedule",
    "construct_label_set",
    "verify_label_set",
]


def ell_star(k, gamma, tau, s, a_norm):
    """Threshold below which K must be empty: the max of the four scale terms

        (2||A||)^(2.5/tau), (2k/5)^(1/s), e^k, (5 gamma^-1 2^tau)^((1/tau)/(3-2s-s^2)).

    Returns a float (math.inf on overflow).
    """
    if k < 0 or gamma <= 0 or tau <= 0 or a_norm <= 0:
        raise QpslError("ell_star inputs must be positive (k >= 0)")
    if not 0 < s < 1:
        raise QpslError("ell_star requires s in (0,1)")
    denom = 3 - 2 * s - s * s     # (1 - s)(3 + s) > 0 for s in (0, 1)
    logs = [
        (2.5 / tau) * math.log(2 * a_norm),
        (1.0 / s) * math.log(2 * k / 5) if k > 0 else -math.inf,
        float(k),
        ((1.0 / tau) / denom) * math.log(5 * 2.0 ** tau / gamma),
    ]
    best = max(logs)
    return math.exp(best) if best < 700 else math.inf


@dataclass(frozen=True)
class GrowthSchedule:
    """Levels ell_j = M^((1+s)^j), j = 0..depth, with an optional ell_star floor.

    ``strict`` enforces M > 1000 and s in (4/5, 1); otherwise violations of
    the asymptotic-regime hypotheses are recorded in ``relaxations`` so no run can
    silently claim strict-regime validity.
    """

    M: float
    s: float
    depth: int
    ell_star: float | None = None
    strict: bool = False
    relaxations: tuple = ()

    def _log10_level(self, j):
        return (1 + self.s) ** j * math.log10(self.M)

    def _level_dps(self, j):
        # levels past the depth keep the depth's precision
        return max(50, int(self._log10_level(min(j, self.depth))) + 30)

    def _power(self, j, dps):
        with mpmath.workdps(dps):
            return mpmath.power(self.M, mpmath.power(1 + self.s, j))

    def level(self, j):
        """ell_j as an mpmath float at its own precision: its integer digits
        plus 30 guard digits, at least 50 digits."""
        if j < 0:
            raise QpslError("level index must be >= 0")
        return self._power(j, self._level_dps(j))

    def level_float(self, j):
        """ell_j as a float, inf from 1e300 on (well past it by log10 alone)."""
        if self._log10_level(j) > 301:
            return math.inf
        v = self.level(j)
        return float(v) if v < mpmath.mpf(10) ** 300 else math.inf

    def levels(self):
        return [self.level_float(j) for j in range(self.depth + 1)]

    def check_ratio_identity(self, rtol=1e-12):
        """ell_{j+1} = ell_j^(1+s) to relative tolerance, j < depth.  Both sides
        are exp of about ln ell_{j+1}, which costs its digits; 50 digits beyond
        those decide a tolerance down to about 1e-40."""
        for j in range(self.depth):
            dps = 50 + max(0, math.ceil(math.log10(3 * self._log10_level(j + 1))))
            a = self._power(j + 1, dps)
            with mpmath.workdps(dps):
                if abs(a - mpmath.power(self._power(j, dps), 1 + self.s)) > rtol * abs(a):
                    return False
        return True


def build_schedule(M, s, depth, ell_star_value=None, strict=False):
    """Assemble a GrowthSchedule; in strict mode enforce the asymptotic-regime
    hypotheses, otherwise record their violation."""
    if M <= 1 or not 0 <= s < 1 or depth < 1:
        raise QpslError("need M > 1, s in [0,1), depth >= 1")
    M, s = float(M), float(s)  # an int and a float record the same text
    relaxations = []
    if M <= 1000:
        msg = f"M = {M} <= 1000"
        if strict:
            raise QpslError("strict schedule requires " + msg.replace("<=", ">"))
        relaxations.append(msg)
    if not (0.8 < s < 1):
        msg = f"s = {s} outside (4/5, 1)"
        if strict:
            raise QpslError("strict schedule rejects " + msg)
        relaxations.append(msg)
    return GrowthSchedule(M=M, s=s, depth=int(depth),
                          ell_star=ell_star_value, strict=strict,
                          relaxations=tuple(relaxations))


def _shell(d, r):
    """Vectors of sup norm exactly r, ordered: axis negatives by coordinate,
    axis positives by coordinate, then the rest in plain lexicographic order.

    This matches the listed pattern (0,..), (-1,0,..), (0,-1,..), ...,
    (1,0,..), (0,1,..); beyond the axis vectors the order is a fixed
    documented tie-break (the construction only needs a deterministic
    enumeration with |n^(m)| <= m).
    """
    if r == 0:
        return [(0,) * d]
    axis_neg = [tuple(-r if i == j else 0 for i in range(d)) for j in range(d)]
    axis_pos = [tuple(r if i == j else 0 for i in range(d)) for j in range(d)]
    axis = set(axis_neg) | set(axis_pos)
    rest = sorted(
        n for n in itertools.product(range(-r, r + 1), repeat=d)
        if max(abs(c) for c in n) == r and n not in axis
    )
    return axis_neg + axis_pos + rest


def lex_enumerate(d, count):
    """First `count` vectors of the fixed enumeration of Z^d.

    Every prefix satisfies |n^(m)| <= m (sup norm).
    """
    if d < 1 or count < 1:
        raise QpslError("need d >= 1 and count >= 1")
    out = []
    r = 0
    while len(out) < count:
        out.extend(_shell(d, r))
        r += 1
    return out[:count]


@dataclass(frozen=True)
class LabelEntry:
    m: int
    base: tuple
    shift: int
    label: tuple
    level: int

    def norm(self):
        return sup_norm(self.label)


@dataclass
class LabelSet:
    d: int
    entries: list
    frequency: FrequencyVector
    schedule: GrowthSchedule | None = None

    def labels(self):
        return [e.label for e in self.entries]

    def to_json(self):
        sched = None
        if self.schedule is not None:
            sched = {"M": self.schedule.M, "s": self.schedule.s,
                     "depth": self.schedule.depth,
                     "ell_star": self.schedule.ell_star,
                     "strict": self.schedule.strict,
                     "relaxations": list(self.schedule.relaxations)}
        return json.dumps({
            "d": self.d,
            "alpha": [str(r) for r in self.frequency.raw],
            "gamma": self.frequency.dc_gamma,
            "tau": self.frequency.dc_tau,
            "schedule": sched,
            "entries": [{"m": e.m, "base": list(e.base), "shift": e.shift,
                         "label": [str(c) for c in e.label], "level": e.level}
                        for e in self.entries],
        }, indent=2)

    @staticmethod
    def from_json(text):
        data = json.loads(text)
        freq = FrequencyVector(tuple(Fraction(c) for c in data["alpha"]),
                               dc_gamma=data.get("gamma", 0.5),
                               dc_tau=data.get("tau", 1.5),
                               raw=tuple(data["alpha"]))
        sched = None
        if data.get("schedule"):
            sd = data["schedule"]
            sched = GrowthSchedule(M=sd["M"], s=sd["s"], depth=sd["depth"],
                                   ell_star=sd.get("ell_star"),
                                   strict=sd.get("strict", False),
                                   relaxations=tuple(sd.get("relaxations", ())))
        entries = [LabelEntry(m=e["m"], base=tuple(e["base"]), shift=int(e["shift"]),
                              label=tuple(int(c) for c in e["label"]), level=e["level"])
                   for e in data["entries"]]
        return LabelSet(d=data["d"], entries=entries, frequency=freq, schedule=sched)

    @staticmethod
    def from_labels(labels, frequency, levels=None):
        """Wrap explicit lattice vectors (handy for presets and tests)."""
        entries = []
        for m, lab in enumerate(labels):
            lab = (lab,) if isinstance(lab, int) else tuple(lab)
            lvl = levels[m] if levels is not None else m
            entries.append(LabelEntry(m=m, base=(0,) * len(lab), shift=0,
                                      label=lab, level=lvl))
        return LabelSet(d=len(entries[0].label), entries=entries, frequency=frequency)


def construct_label_set(alpha: FrequencyVector, schedule: GrowthSchedule,
                        j1, spacing, count):
    """Build `count` entries: entry m pairs the m-th enumeration vector with the
    resonant denominator of alpha_1 at level j_m = j1 + m*spacing.

    ``spacing`` must be >= 2.  In strict mode ell_{j1} must clear ell_star.
    """
    if spacing < 2:
        raise QpslError("spacing must be >= 2")
    if count < 1:
        raise QpslError("count must be >= 1")
    top_level = j1 + spacing * (count - 1)
    if top_level > schedule.depth:
        raise ScheduleTooShort(
            f"need level {top_level} but schedule depth is {schedule.depth}")
    if schedule.strict and schedule.ell_star is not None:
        if schedule.level_float(j1) < schedule.ell_star:
            raise QpslError(
                f"strict mode: ell_(j1) = {schedule.level_float(j1):.4g} "
                f"below ell_star = {schedule.ell_star:.4g}")

    log10_top = float(mpmath.log10(schedule.level(top_level)))
    # denominators must reach 41 ell/20; golden-type expansions grow
    # slowest (by the golden ratio per level)
    cf_depth = max(12, int((log10_top + math.log10(2.05))
                           * math.log(10) / math.log((1 + math.sqrt(5)) / 2)) + 8)
    try:
        cf = alpha.cf(cf_depth)
    except PrecisionExhausted as e:
        need = int(2 * log10_top) + 20
        raise PrecisionExhausted(
            f"{e}; reaching level {top_level} (ell ~ 1e{log10_top:.0f}) needs the "
            f"first frequency component declared to about {need} digits",
            reason=e.reason, level=e.level) from e

    bases = lex_enumerate(alpha.d, count)
    entries = []
    for m in range(count):
        j_m = j1 + spacing * m
        res = resonant_denominator(cf, mpf_to_fraction(schedule.level(j_m)))
        base = bases[m]
        label = tuple(base[i] + (res.q if i == 0 else 0) for i in range(alpha.d))
        entries.append(LabelEntry(m=m, base=base, shift=res.q, label=label, level=j_m))
    return LabelSet(d=alpha.d, entries=entries, frequency=alpha, schedule=schedule)


@dataclass
class VerifyReport:
    sparsity_ok: bool
    annulus_ok: bool
    floor_ok: bool | None
    spacing_ok: bool
    window_ok: bool
    violations: list = field(default_factory=list)
    density: list = field(default_factory=list)
    relaxations: tuple = ()

    @property
    def passed(self):
        structural = self.sparsity_ok and self.annulus_ok and self.spacing_ok and self.window_ok
        return structural and (self.floor_ok is not False)

    def as_dict(self):
        return {"sparsity_ok": self.sparsity_ok, "annulus_ok": self.annulus_ok,
                "floor_ok": self.floor_ok, "spacing_ok": self.spacing_ok,
                "window_ok": self.window_ok, "violations": self.violations,
                "density": [{"target": float(t), "best": float(b), "within_tol": ok}
                            for (t, b, ok) in self.density],
                "relaxations": list(self.relaxations)}


def verify_label_set(ks: LabelSet, schedule: GrowthSchedule | None = None,
                     density_targets=None, density_tol=1e-2):
    """Check the defining properties of K against a schedule.

    (a) at most one entry with ell_j <= |n| < ell_{j+2};
    (b) no entry with 21 ell_j / 10 <= |n| < ell_{j+1};
    (c) no entry below ell_star (skipped if the schedule has none);
    plus level spacing >= 2 and each entry inside [ell_{j_m}, 21 ell_{j_m}/10).

    For each density target t the report carries
    min over entries of || <n, alpha>/2 - t ||_{R/Z} and a tolerance verdict.
    """
    if not ks.entries:
        raise QpslError("label set is empty")
    schedule = schedule or ks.schedule
    if schedule is None:
        raise QpslError("no schedule supplied")
    violations = []
    norms = [e.norm() for e in ks.entries]
    jmax = max(e.level for e in ks.entries) + 2

    # exact comparisons: each level as the Fraction of its mpmath value
    levels = [mpf_to_fraction(schedule.level(j))
              for j in range(min(jmax + 1, schedule.depth + 1))]

    sparsity_ok = True
    for j in range(len(levels) - 2):
        inside = [ks.entries[i].m for i, n in enumerate(norms)
                  if levels[j] <= n < levels[j + 2]]
        if len(inside) > 1:
            sparsity_ok = False
            violations.append(("sparsity", j, inside))

    annulus_ok = True
    for j in range(len(levels) - 1):
        lo = levels[j] * Fraction(21, 10)
        inside = [ks.entries[i].m for i, n in enumerate(norms)
                  if lo <= n < levels[j + 1]]
        if inside:
            annulus_ok = False
            violations.append(("annulus", j, inside))

    floor_ok = None
    if schedule.ell_star is not None:
        floor_ok = True
        for i, n in enumerate(norms):
            if n < schedule.ell_star:
                floor_ok = False
                violations.append(("floor", ks.entries[i].m, n))

    window_ok = True
    for e, n in zip(ks.entries, norms):
        if e.level > schedule.depth:
            window_ok = False
            violations.append(("window-level", e.m, e.level))
            continue
        lo = levels[e.level]
        if not (lo <= n < lo * Fraction(21, 10)):
            window_ok = False
            violations.append(("window", e.m, n))

    spacing_ok = True
    lv = sorted(e.level for e in ks.entries)
    for a, b in zip(lv, lv[1:]):
        if b - a < 2:
            spacing_ok = False
            violations.append(("spacing", a, b))

    density = []
    if density_targets is not None:
        for t in density_targets:
            t_fr = Fraction(t).limit_denominator(10 ** 12) if not isinstance(t, Fraction) else t
            best = min(dist_to_integers(ks.frequency.exact_pairing(e.label) / 2 - t_fr)
                       for e in ks.entries)
            density.append((float(t), float(best), float(best) < density_tol))

    return VerifyReport(sparsity_ok=sparsity_ok, annulus_ok=annulus_ok,
                        floor_ok=floor_ok, spacing_ok=spacing_ok, window_ok=window_ok,
                        violations=violations, density=density,
                        relaxations=schedule.relaxations)
