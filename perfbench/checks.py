"""Correctness gates and operation outcomes for the benchmark.

A ``Gate`` collects the checks one operation fails; ``attempt`` runs one
operation and its check and turns a raised exception or a failed check into a
failed outcome, so both count in ``fail_ratio``.
"""

import math
import time


class Gate:
    """Tolerance checks against reference values; failures are collected,
    never raised, so one operation reports every check it misses."""

    def __init__(self):
        self.failures = []

    def _record(self, ok, name, got, want):
        if not ok:
            self.failures.append(f"{name}: got {got!r}, want {want}")
        return ok

    def abs_close(self, name, got, want, tol):
        ok = _finite(got) and abs(got - want) <= tol
        return self._record(ok, name, got, f"{want!r} +- {tol:g}")

    def rel_close(self, name, got, want, rtol):
        ok = _finite(got) and abs(got - want) <= rtol * abs(want)
        return self._record(ok, name, got, f"{want!r} within {rtol:g} relative")

    def at_most(self, name, got, limit):
        ok = _finite(got) and got <= limit
        return self._record(ok, name, got, f"<= {limit:g}")

    def equal(self, name, got, want):
        return self._record(got == want, name, got, repr(want))

    def true(self, name, got):
        return self._record(got is True, name, got, "True")


def _finite(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def attempt(op, check):
    """Run ``op()`` then ``check(result) -> list of failure messages``.

    The wall time covers the operation and its check.  An exception from
    either is a failure of this operation, not of the benchmark.
    """
    t0 = time.perf_counter()
    result, failures = None, []
    try:
        result = op()
        failures = list(check(result))
    except Exception as e:  # one failed operation must not end the run
        failures = [f"raised {type(e).__name__}: {e}"]
    return {"wall_s": time.perf_counter() - t0, "failures": failures, "result": result}


def fail_ratio(outcomes):
    """Operations that raised or failed a check, over operations attempted."""
    if not outcomes:
        raise ValueError("no operation was attempted")
    return sum(1 for o in outcomes if o["failures"]) / len(outcomes)
