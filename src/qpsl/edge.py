"""The gap-edge search: a one-dimensional root search on an indicator t(E),
positive inside the gap, known through ``evaluate(E) -> (t, payload)``, which
may raise one of the caller's failure types (recorded, and read as t = -inf,
outside the gap), and ``slope(payload) -> dt/dE``.

The edge is bracketed on equal steps from a start that reads inside the gap,
jumping to the step the parabola through the last three inside values
predicts, and then located by Newton steps on t, bisecting where a step
would leave the bracket, down to the resolution of t.
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

    The bracket lies on the steps E_k = E_{k-1} +- ``step`` (running float
    sums from E_0 = E_in); from step j = 2 on, the search jumps to the step
    just inside the root of the parabola through the last three inside steps,
    at most to step 4j and to step 40, and a Newton step from step j that
    falls short of step j + 1 comes first; the first energy that reads t <= 0
    closes the bracket.  Newton steps -t / ``slope(payload)`` from the last
    evaluation then shrink the bracket, bisecting where a step leaves it or
    an end failed.  When t is rounded to the float grid at 1.0 (as |Re a| - 1
    is), one quantum of it spans q = 2**-52 / |t'| in E: a shorter step
    crosses by q / 2, and the search stops once t_in - t_out <= 2 ulp(1.0) in
    a bracket at most q / 2 and 1e-14 relative wide, or at 4e-16 relative
    width.  Returns the innermost t > 0 energy and its payload, and sets
    search["bracket"] to the final [E_in, E_out].  Raises NonConvergence
    when step 40 still reads t > 0, and when the outer end of the final
    bracket is a failure, which may lie just outside the gap or inside it.
    """
    sign = +1.0 if edge == "upper" else -1.0
    steps, inside = [E_in], [(0, t_in)]  # inside: (k, t) with t > 0
    while True:
        j, k = inside[-1][0], inside[-1][0] + 1
        if 2 <= j < 40:  # the root beyond x2 of p(x2 + s) = a s^2 + b s + t2
            (x0, t0), (x1, t1), (x2, t2) = inside[-3:]
            a = ((t2 - t1) / (x2 - x1) - (t1 - t0) / (x1 - x0)) / (x2 - x0)
            b = (t2 - t1) / (x2 - x1) + a * (x2 - x1)
            den = math.sqrt(b * b - 4 * a * t2) - b if b * b >= 4 * a * t2 else 0.0
            if den > 0:
                k = min(max(math.ceil(x2 + 2 * t2 / den) - 1, k), 4 * j, 40)
        if k > 40:
            raise NonConvergence(f"could not bracket the {edge} edge from E = {E_in}")
        while len(steps) <= k:
            steps.append(steps[-1] + sign * step)
        E = steps[k]
        if j >= 2 and k == j + 1 and E_in == steps[j]:
            # a Newton step from step j that falls short of step k comes first
            s = slope(payload)
            if s and min(E_in, E) < E_in - t_in / s < max(E_in, E):
                E = E_in - t_in / s
        t, found = indicator(E)
        if t <= 0:
            E_out, t_out = E, t
            break
        if E == steps[k]:  # after a Newton step inside, step k is still due
            inside.append((k, t))
        E_in, t_in, payload = E, t, found

    # safeguarded Newton on the caller's slope, from the last evaluation
    q = 0.0  # one quantum of t, measured in E
    for _ in range(200):
        width, scale = abs(E_out - E_in), max(1.0, abs(0.5 * (E_in + E_out)))
        if (width < 4e-16 * scale or (t_in - t_out <= 2 * math.ulp(1.0)
                                      and width <= min(q / 2, 1e-14 * scale))):
            break
        dE = math.inf  # bisect unless a Newton step stays inside the bracket
        s = slope(found) if math.isfinite(t_out) else 0.0
        if s:
            q, dE = math.ulp(1.0) / abs(s), -t / s
            if abs(dE) < q:  # t cannot resolve the step: cross by q / 2
                dE = math.copysign(q / 2, (E_out if t > 0 else E_in) - E)
        E = E + dE if min(E_in, E_out) < E + dE < max(E_in, E_out) else 0.5 * (E_in + E_out)
        t, found = indicator(E)
        if t > 0:
            E_in, t_in, payload = E, t, found
        else:
            E_out, t_out = E, t
    search["bracket"] = [E_in, E_out]
    if t_out == -math.inf:
        # the bracket closed on a failure, which may be the edge or the
        # boundary of a failing window inside the gap; that failure is the
        # last one recorded, since every failure becomes E_out
        kind, E_fail = search["failures"][-1]
        raise NonConvergence(f"{edge} edge search ended on a failed reduction ({kind} at "
                             f"E = {E_fail!r}) after {search['evaluations']} evaluations")
    return E_in, payload
