"""Exception hierarchy for the qpsl package."""


class QpslError(Exception):
    """Base class for all package errors."""


class NotInUnitInterval(QpslError):
    pass


class PrecisionExhausted(QpslError):
    """Raised when the declared precision of an input cannot certify the next step.

    ``reason`` is either ``"ambiguous"`` (interval arithmetic cannot separate
    floor candidates) or ``"rational"`` (the remainder vanished exactly, so the
    input is rational at the declared precision).
    """

    def __init__(self, message, reason="ambiguous", level=None):
        super().__init__(message)
        self.reason = reason
        self.level = level


class ExpansionTooShallow(QpslError):
    pass


class ScheduleTooShort(QpslError):
    pass


class DomainMismatch(QpslError):
    pass


class DegreeOverflow(QpslError):
    pass


class SingularConjugator(QpslError):
    pass


class NotUnipotent(QpslError):
    pass


class NotElliptic(QpslError):
    pass


class SmallDivisor(QpslError):
    def __init__(self, mode, value, floor):
        super().__init__(f"divisor {value:.3e} below floor {floor:.3e} at mode {mode}")
        self.mode = mode
        self.value = value
        self.floor = floor


class NewtonDiverged(QpslError):
    pass


class StateInvalid(QpslError):
    pass


class TargetNotLocked(QpslError):
    pass


class NonConvergence(QpslError):
    pass


class ConfigInvalid(QpslError):
    pass
