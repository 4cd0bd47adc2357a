"""The gap-edge search: a one-dimensional root search on an indicator t(E),
positive inside the gap, known through ``evaluate(E) -> (t, payload)``, which
may raise one of the caller's failure types (recorded, and read as t = -inf,
outside the gap), and ``slope(payload) -> dt/dE``.

Every move is a root of the quadratic with the last evaluation's t and slope
and the secant of the last two slopes as curvature: outward until the edge is
bracketed, then inside the bracket (else bisecting) to the resolution of t.
"""

import math

from .errors import NonConvergence

__all__ = ["recorded", "locate_edge"]


def recorded(evaluate, failures, search):
    """``evaluate`` counted on the record ``search``: each call adds one to its
    "evaluations", and one that raises a type in ``failures`` appends [type
    name, E] to its "failures" and reads (-inf, None)."""
    def indicator(E):
        search["evaluations"] += 1
        try:
            return evaluate(E)
        except failures as exc:
            search["failures"].append([type(exc).__name__, E])
            return -math.inf, None
    return indicator


def locate_edge(indicator, slope, E_in, t_in, payload, step, edge, search):
    """Locate the ``edge`` ("upper" or "lower") of the gap around E_in, where
    ``indicator`` (from :func:`recorded`) read t_in > 0 with ``payload``.

    Each move from the last evaluation with finite t, (E, t, s = ``slope``),
    is a root of t + s x + c x^2, c = (s - s') / (2 (E - E')) from the one
    before, (E', s'): the first move is one ``step``, then the outward root
    nearest 0 (one ``step`` where there is none) up to step 40 from E_in
    until an energy reads t <= 0, then the root nearest 0, bisecting where it
    leaves the bracket or an end failed.  When t is rounded to the float grid
    at 1.0 (as |Re a| - 1 is), one quantum of it spans q = 2**-52 / |s| in E:
    a shorter move crosses by q / 2, and the search stops once t_in - t_out
    <= 2 ulp(1.0) in a bracket at most q / 2 and 1e-14 relative wide, or at
    4e-16 relative width.  Returns the innermost t > 0 energy and its payload
    and sets search["bracket"] to the final [E_in, E_out].  Raises
    NonConvergence when step 40 still reads t > 0, and when the outer end of
    the final bracket is a failure, just outside the gap or inside it.
    """
    sign = +1.0 if edge == "upper" else -1.0
    E_last = E_in + sign * 40 * step  # step 40
    E, t, found, E_out, t_out = E_in, t_in, payload, None, None
    last, q = [], 0.0  # the last two evaluations with finite t, as (E, t, s)
    for _ in range(200):
        if E_out is not None:
            width, scale = abs(E_out - E_in), max(1.0, abs(0.5 * (E_in + E_out)))
            if (width < 4e-16 * scale or (t_in - t_out <= 2 * math.ulp(1.0)
                                          and width <= min(q / 2, 1e-14 * scale))):
                break
        if math.isfinite(t):
            last = [*last[-1:], (E, t, slope(found))]
        (E_prev, _, s_prev), (E1, t1, s1) = last[0], last[-1]
        c = (s1 - s_prev) / (2 * (E1 - E_prev)) if E1 != E_prev else 0.0
        disc = s1 * s1 - 4 * c * t1
        Q = -0.5 * (s1 + math.copysign(math.sqrt(disc), s1)) if disc >= 0 else 0.0
        roots = ([t1 / Q] + ([Q / c] if c else [])) if Q and len(last) == 2 else []
        if E_out is None:  # the outward root nearest 0; one step first and where none is
            dE = next((x for x in roots if sign * x > 0), sign * step)
        else:  # the root nearest 0, by bisection where an end failed
            dE = roots[0] if roots and math.isfinite(t_out) else math.inf
        q = math.ulp(1.0) / abs(s1) if s1 else q
        if abs(dE) < q:  # t cannot resolve the move: cross by q / 2, one ulp at least
            dE = (sign if t1 > 0 else -sign) * q / 2
            if E1 + dE == E1:
                dE = math.nextafter(E1, math.copysign(math.inf, dE)) - E1
        if E_out is None:
            E = E_last if sign * (E1 + dE - E_last) > 0 else E1 + dE
        else:
            E = E1 + dE if min(E_in, E_out) < E1 + dE < max(E_in, E_out) else 0.5 * (E_in + E_out)
        t, found = indicator(E)
        if t > 0:
            E_in, t_in, payload = E, t, found
            if E_out is None and E == E_last:
                break
        else:
            E_out, t_out = E, t
    if E_out is None:
        raise NonConvergence(f"could not bracket the {edge} edge from E = {E_in}")
    search["bracket"] = [E_in, E_out]
    if t_out == -math.inf:
        # the bracket closed on a failure, which may be the edge or the
        # boundary of a failing window inside the gap; that failure is the
        # last one recorded, since every failure becomes E_out
        kind, E_fail = search["failures"][-1]
        raise NonConvergence(f"{edge} edge search ended on a failed reduction ({kind} at "
                             f"E = {E_fail!r}) after {search['evaluations']} evaluations")
    return E_in, payload
