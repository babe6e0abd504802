"""Scalar special-function kernels used by the series evaluators.

Everything here is hand-rolled on top of ``math`` so the series routes stay
fully independent of the scipy-based quadrature oracle.  The kernels cover
exactly what the evaluators need: incomplete gamma functions (linear and log
domain), the modified Bessel function of the first kind, Kummer's confluent
hypergeometric function, and the half-odd-integer rounding helpers.

Conventions: ``lower_inc_gamma(a, x)`` is the unregularized integral from 0
to x of t^(a-1) e^(-t) dt, ``upper_inc_gamma`` its complement on [x, inf).
Orders are real and positive throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, NonConvergenceError, TermOverflowError

__all__ = [
    "SeriesResult",
    "BoundReport",
    "ceil_half",
    "floor_half",
    "sgn",
    "classify_order",
    "lower_inc_gamma",
    "upper_inc_gamma",
    "lower_inc_gamma_log",
    "upper_inc_gamma_log",
    "bessel_i",
    "bessel_i_scaled",
    "kummer_1f1",
]

# Largest exponent exp() can take before a double overflows.
LOG_OVERFLOW = 700.0
_EPS = 1e-17
_MAX_KERNEL_TERMS = 500_000


@dataclass(frozen=True)
class SeriesResult:
    """Outcome of summing a series: the value plus convergence diagnostics."""

    value: float
    terms_used: int
    last_term_abs: float
    converged: bool


@dataclass(frozen=True)
class BoundReport:
    """An analytic bound next to the quantity it is supposed to dominate.

    ``slack = bound_value - dominated_quantity``; nonnegative slack means the
    bound held.  ``regime_ok`` records whether the parameters sit inside the
    regime the bound is advertised for (the bound may hold outside it too).
    """

    bound_value: float
    dominated_quantity: float
    regime_ok: bool
    slack: float


def check_finite(**values: float) -> None:
    """Raise DomainError naming the first keyword value that is +-inf or nan."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")


def ceil_half(x: float) -> float:
    """Smallest half-odd integer >= x (identity on half-odd integers)."""
    return math.ceil(x - 0.5) + 0.5


def floor_half(x: float) -> float:
    """Largest half-odd integer <= x (identity on half-odd integers)."""
    return math.floor(x + 0.5) - 0.5


def sgn(x: float) -> int:
    """Sign of x with sgn(0) = 0."""
    return (x > 0) - (x < 0)


def classify_order(x: float, tol: float = 1e-9) -> str:
    """Classify an order as 'integer', 'half-odd' or 'general' within tol."""
    frac = x - math.floor(x)
    if frac <= tol or frac >= 1.0 - tol:
        return "integer"
    if abs(frac - 0.5) <= tol:
        return "half-odd"
    return "general"


def _log_lower_series(a: float, x: float) -> float:
    # gamma_lower(a,x) = x^a e^-x * sum_k x^k / (a (a+1) ... (a+k)),
    # the stable branch for x < a + 1.
    term = 1.0 / a
    total = term
    k = 0
    while True:
        k += 1
        term *= x / (a + k)
        total += term
        if term < _EPS * total:
            break
        if k > _MAX_KERNEL_TERMS:
            raise NonConvergenceError(
                f"lower incomplete gamma series stalled at a={a}, x={x}",
                partial_value=total, terms=k)
    return a * math.log(x) - x + math.log(total)


def _log_upper_cf(a: float, x: float) -> float:
    # Gamma_upper(a,x) = x^a e^-x * CF, modified Lentz evaluation of the
    # standard continued fraction; the stable branch for x >= a + 1.
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_KERNEL_TERMS):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return a * math.log(x) - x + math.log(h)
    raise NonConvergenceError(
        f"upper incomplete gamma continued fraction stalled at a={a}, x={x}",
        partial_value=h, terms=_MAX_KERNEL_TERMS)


def _check_gamma_args(a: float, x: float) -> None:
    if not (a > 0.0):
        raise DomainError(f"incomplete gamma order must be positive, got a={a}")
    if x < 0.0 or math.isnan(x):
        raise DomainError(f"incomplete gamma argument must be >= 0, got x={x}")


def lower_inc_gamma_log(a: float, x: float) -> float:
    """log of the lower incomplete gamma function; -inf at x = 0.

    Stays finite for large orders where the linear value would underflow
    (e.g. a ~ 500, x ~ 60).
    """
    _check_gamma_args(a, x)
    if x == 0.0:
        return -math.inf
    if x < a + 1.0:
        return _log_lower_series(a, x)
    # complement branch: Q(a,x) < ~0.5 here, so no cancellation
    q = math.exp(_log_upper_cf(a, x) - math.lgamma(a))
    if q >= 1.0:  # roundoff guard, only reachable at the branch seam
        q = math.nextafter(1.0, 0.0)
    return math.lgamma(a) + math.log1p(-q)


def upper_inc_gamma_log(a: float, x: float) -> float:
    """log of the upper incomplete gamma function; lgamma(a) at x = 0."""
    _check_gamma_args(a, x)
    if x == 0.0:
        return math.lgamma(a)
    if x >= a + 1.0:
        return _log_upper_cf(a, x)
    # complement branch: P(a,x) is bounded away from 1 for x < a + 1
    p = math.exp(_log_lower_series(a, x) - math.lgamma(a))
    if p >= 1.0:
        p = math.nextafter(1.0, 0.0)
    return math.lgamma(a) + math.log1p(-p)


def lower_inc_gamma(a: float, x: float) -> float:
    lg = lower_inc_gamma_log(a, x)
    if lg == -math.inf:
        return 0.0
    if lg > LOG_OVERFLOW:
        raise TermOverflowError(
            f"lower incomplete gamma overflows at a={a}, x={x}", log_term=lg)
    return math.exp(lg)


def upper_inc_gamma(a: float, x: float) -> float:
    lg = upper_inc_gamma_log(a, x)
    if lg > LOG_OVERFLOW:
        raise TermOverflowError(
            f"upper incomplete gamma overflows at a={a}, x={x}", log_term=lg)
    return math.exp(lg)


def _log_bessel_i(nu: float, x: float) -> float:
    # Ascending series sum_k (x/2)^(nu+2k) / (k! Gamma(nu+k+1)), summed as a
    # ratio recurrence with periodic rescaling so large x stays in range.
    q = 0.25 * x * x
    ratio = 1.0
    total = 1.0
    shift = 0.0
    k = 0
    while True:
        k += 1
        ratio *= q / (k * (nu + k))
        total += ratio
        if ratio < _EPS * total:
            break
        if total > 1e250:
            shift += math.log(total)
            ratio /= total
            total = 1.0
        if k > _MAX_KERNEL_TERMS:
            raise NonConvergenceError(
                f"Bessel I series stalled at nu={nu}, x={x}",
                partial_value=total, terms=k)
    return nu * math.log(0.5 * x) - math.lgamma(nu + 1.0) + math.log(total) + shift


def bessel_i_scaled(nu: float, x: float) -> float:
    """e^-x I_nu(x) for nu >= 0, x >= 0.  The overflow-safe workhorse."""
    if nu < 0.0:
        raise DomainError(f"Bessel order must be >= 0, got nu={nu}")
    if x < 0.0 or math.isnan(x):
        raise DomainError(f"Bessel argument must be >= 0, got x={x}")
    if x == 0.0:
        return 1.0 if nu == 0.0 else 0.0
    return math.exp(_log_bessel_i(nu, x) - x)


def bessel_i(nu: float, x: float) -> float:
    """I_nu(x); raises TermOverflowError once e^x swamps double range."""
    if nu < 0.0:
        raise DomainError(f"Bessel order must be >= 0, got nu={nu}")
    if x < 0.0 or math.isnan(x):
        raise DomainError(f"Bessel argument must be >= 0, got x={x}")
    if x == 0.0:
        return 1.0 if nu == 0.0 else 0.0
    lg = _log_bessel_i(nu, x)
    if lg > LOG_OVERFLOW:
        raise TermOverflowError(
            f"I_nu overflows at nu={nu}, x={x}; use bessel_i_scaled", log_term=lg)
    return math.exp(lg)


def kummer_1f1(a: float, b: float, x: float,
               rtol: float = 1e-16, max_terms: int = 10_000) -> float:
    """Kummer's confluent hypergeometric function 1F1(a; b; x).

    Plain ascending series; adequate for the moderate nonnegative arguments
    the bounds use (x = a^2/2 or r^2 well under the overflow range).  Raises
    DomainError for a nan argument or when b is a nonpositive integer (a pole
    of 1F1), TermOverflowError when the sum overflows a double, and
    NonConvergenceError if the term cap is hit.
    """
    if math.isnan(a) or math.isnan(b) or math.isnan(x):
        raise DomainError(f"1F1 arguments must not be nan, got a={a}, b={b}, x={x}")
    if b <= 0.0 and abs(b - round(b)) < 1e-9:
        raise DomainError(f"1F1 pole: b={b} is a nonpositive integer")
    if x < 0.0:
        # the ascending series alternates there; out of contract
        raise DomainError(f"1F1 argument must be >= 0, got {x}")
    term = 1.0
    total = 1.0
    for k in range(max_terms):
        term *= (a + k) * x / ((b + k) * (k + 1.0))
        total += term
        if math.isinf(total):
            # log_term is inf when the term itself overflowed
            raise TermOverflowError(
                f"1F1 series overflows at k={k} for a={a}, b={b}, x={x}",
                log_term=math.log(abs(term)))
        if abs(term) < rtol * abs(total):
            return total
    raise NonConvergenceError(
        f"1F1 series did not converge for a={a}, b={b}, x={x}",
        partial_value=total, terms=max_terms)
