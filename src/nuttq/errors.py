"""Exception types shared across the package.

Every failure mode callers are expected to handle gets its own class so the
CLI can map them onto distinct exit codes and tests can assert on them
precisely.  All of them carry enough state to diagnose the failure without
re-running the computation.
"""

from __future__ import annotations

__all__ = [
    "DomainError",
    "NonConvergenceError",
    "TermOverflowError",
    "ToleranceNotMetError",
]


class DomainError(ValueError):
    """Raised when arguments are outside the mathematical or supported domain."""


class NonConvergenceError(RuntimeError):
    """A series hit its term cap before meeting the stopping rule.

    Carries the partial value and the number of terms summed so far, which is
    usually enough to tell a genuinely divergent call from a too-tight
    tolerance.
    """

    def __init__(self, message: str, partial_value: float, terms: int):
        super().__init__(message)
        self.partial_value = partial_value
        self.terms = terms


class ToleranceNotMetError(RuntimeError):
    """A quadrature routine finished but its error estimate exceeds the request.

    The best value and the estimate are attached; callers that can live with
    the looser accuracy may still use them.
    """

    def __init__(self, message: str, value: float, err_est: float):
        super().__init__(message)
        self.value = value
        self.err_est = err_est


class TermOverflowError(ArithmeticError):
    """A series term would overflow double precision (log term > ~700)."""

    def __init__(self, message: str, log_term: float):
        super().__init__(message)
        self.log_term = log_term
