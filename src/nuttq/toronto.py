"""Incomplete Toronto function evaluators, closed forms, and error bounds.

The incomplete Toronto function is

    T_B(m, n, r) = 2 r^(n-m+1) e^(-r^2)
                   * integral_0^B t^(m-n) e^(-t^2) I_n(2rt) dt,

evaluated through its series in the summation index k,

    T_B(m, n, r) = sum_{k>=0} r^(2(n+k)-m+1) gamma((m+1)/2 + k, B^2)
                   / (k! Gamma(n+k+1) e^(r^2)),

with gamma(., .) the lower incomplete gamma function.  Terms are positive, so
partial sums increase monotonically and the truncation error is the tail.

Also here: the finite closed form for integer m with half-odd-integer n, the
rounding-based truncation error bound built on it, the B-independent 1F1
upper bound, and the residual of the Marcum Q identity at n = (m-1)/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, NonConvergenceError, TermOverflowError
from .nuttall import marcum_q
from .special import (
    LOG_OVERFLOW,
    BoundReport,
    SeriesResult,
    check_finite,
    classify_order,
    floor_half,
    kummer_1f1,
    lower_inc_gamma,
    lower_inc_gamma_log,
    sgn,
)

__all__ = [
    "TorontoParams",
    "toronto_series_truncated",
    "toronto_series_adaptive",
    "toronto_closed_form_half",
    "toronto_truncation_bound",
    "toronto_upper_bound_1f1",
    "toronto_marcum_residual",
    "toronto_t",
]

MAX_TRUNC_TERMS = 500
_DEFAULT_MAX_TERMS = 10_000
ADAPTIVE_TOL_MIN = 1e-14
_STOP_RUN = 3


@dataclass(frozen=True)
class TorontoParams:
    """Arguments of T_B(m, n, r), validated once at construction.

    Every field must be finite.  m - n > -1 keeps the integrand integrable
    at t = 0.
    """

    m: float
    n: float
    r: float
    B: float

    def __post_init__(self):
        check_finite(m=self.m, n=self.n, r=self.r, B=self.B)
        if not (self.n >= 0.0):
            raise DomainError(f"n must be >= 0, got {self.n}")
        if not (self.m - self.n > -1.0):
            raise DomainError(
                f"need m - n > -1 for integrability, got {self.m - self.n}")
        if not (self.r > 0.0):
            raise DomainError(f"r must be > 0, got {self.r}")
        if not (self.B > 0.0):
            raise DomainError(f"B must be > 0, got {self.B}")


def _term_log(p: TorontoParams, k: int) -> float:
    return ((2.0 * (p.n + k) - p.m + 1.0) * math.log(p.r) - p.r * p.r
            + lower_inc_gamma_log(0.5 * (p.m + 1.0) + k, p.B * p.B)
            - math.lgamma(k + 1.0) - math.lgamma(p.n + k + 1.0))


def _term(p: TorontoParams, k: int) -> float:
    lg = _term_log(p, k)
    if lg == -math.inf:
        return 0.0
    if lg > LOG_OVERFLOW:
        raise TermOverflowError(
            f"series term overflows at k={k} for {p}", log_term=lg)
    return math.exp(lg)


def _check_terms(terms: int) -> None:
    if not (1 <= terms <= MAX_TRUNC_TERMS):
        raise DomainError(f"terms must be in [1, {MAX_TRUNC_TERMS}], got {terms}")


def toronto_series_truncated(p: TorontoParams, terms: int,
                             polynomial_weights: bool = False) -> SeriesResult:
    """Fixed-depth partial sum of the series (k = 0..P-1 by default).

    ``polynomial_weights=True`` evaluates the degree-P polynomial variant
    instead: terms k = 0..P, each multiplied by
    w_k = Gamma(P+k) P^(1-2k) / Gamma(P-k+1).  The weights approach 1 as P
    grows but cost several digits at moderate P, so the plain partial sum is
    the default.
    """
    _check_terms(terms)
    top = terms + 1 if polynomial_weights else terms
    total = 0.0
    last = 0.0
    for k in range(top):
        t = _term(p, k)
        if polynomial_weights:
            t *= math.exp(math.lgamma(terms + k) + (1 - 2 * k) * math.log(terms)
                          - math.lgamma(terms - k + 1.0))
        total += t
        last = t
    return SeriesResult(value=total, terms_used=top, last_term_abs=last,
                        converged=True)


def toronto_series_adaptive(p: TorontoParams, tol: float = 1e-12,
                            max_terms: int = _DEFAULT_MAX_TERMS) -> SeriesResult:
    """Sum the series until terms stay below tol * partial sum.

    Same stop rule as the Nuttall evaluator: _STOP_RUN consecutive terms
    under the relative threshold, term hump near k ~ r^2 notwithstanding.
    """
    if tol < ADAPTIVE_TOL_MIN:
        raise DomainError(f"tol must be >= {ADAPTIVE_TOL_MIN}, got {tol}")
    total = 0.0
    below = 0
    for k in range(max_terms):
        t = _term(p, k)
        total += t
        if t < tol * total:
            below += 1
            if below >= _STOP_RUN:
                return SeriesResult(value=total, terms_used=k + 1,
                                    last_term_abs=t, converged=True)
        else:
            below = 0
    raise NonConvergenceError(
        f"series for {p} did not meet tol={tol} in {max_terms} terms",
        partial_value=total, terms=max_terms)


def toronto_closed_form_half(m: float, n: float, r: float, B: float) -> float:
    """Finite closed form of T_B(m, n, r) for integer m, half-odd n.

    Splits the elementary I_{nu+1/2} integrand into lower incomplete gammas
    at (B-r)^2, (B+r)^2 and r^2:

        T = r^(n-m+1/2) / sqrt(pi) * sum_{k=0}^{nu} c_k (2r)^-k
            [(-1)^k P1(s) + (-1)^(nu+1) P2(s)],  s = m - nu - 1 - k,
        P1(s) = sum_l C(s,l) r^(s-l) (1/2) [sgn(B-r)^(l+1) g((l+1)/2, (B-r)^2)
                                            + (-1)^l g((l+1)/2, r^2)]
        P2(s) = sum_l C(s,l) (-r)^(s-l) (1/2) [g((l+1)/2, (B+r)^2)
                                               - g((l+1)/2, r^2)]

    with c_k = (nu+k)!/(2^k k! (nu-k)!) and g the lower incomplete gamma.
    sgn(B - r) = 0 at B = r drops the first gamma exactly.  Requires
    m >= 2n (i.e. m >= 2 nu + 1) so every exponent s - l stays nonnegative;
    below that the elementary split diverges termwise at t = 0.
    """
    if classify_order(m) != "integer" or classify_order(n) != "half-odd":
        raise DomainError(
            f"closed form needs integer m and half-odd n, got m={m}, n={n}")
    mi = round(m)
    nu = round(n - 0.5)
    if mi < 1 or nu < 0:
        raise DomainError(f"need m >= 1 and n >= 0.5, got m={m}, n={n}")
    if mi < 2 * nu + 1:
        raise DomainError(
            f"closed form needs m >= 2n, got m={m} < 2n={2 * n}")
    if not (r > 0.0 and B > 0.0):
        raise DomainError(f"need r > 0 and B > 0, got r={r}, B={B}")
    xm = (B - r) ** 2
    xp = (B + r) ** 2
    xr = r * r
    sm = sgn(B - r)

    def p_one(s: int) -> float:
        acc = 0.0
        for l in range(s + 1):
            g = (-1.0) ** l * lower_inc_gamma(0.5 * (l + 1), xr)
            if sm != 0:
                g += sm ** (l + 1) * lower_inc_gamma(0.5 * (l + 1), xm)
            acc += math.comb(s, l) * r ** (s - l) * 0.5 * g
        return acc

    def p_two(s: int) -> float:
        acc = 0.0
        for l in range(s + 1):
            g = lower_inc_gamma(0.5 * (l + 1), xp) \
                - lower_inc_gamma(0.5 * (l + 1), xr)
            acc += math.comb(s, l) * (-r) ** (s - l) * 0.5 * g
        return acc

    total = 0.0
    for k in range(nu + 1):
        c_k = (math.factorial(nu + k)
               / (2.0 ** k * math.factorial(k) * math.factorial(nu - k)))
        s = mi - nu - 1 - k
        total += (c_k * (2.0 * r) ** (-k)
                  * ((-1) ** k * p_one(s) + (-1) ** (nu + 1) * p_two(s)))
    return r ** (n - m + 0.5) / math.sqrt(math.pi) * total


def toronto_truncation_bound(p: TorontoParams, terms: int) -> BoundReport:
    """Rounding-based bound on the P-term truncation error, with its slack.

    Rounds m up to the nearest integer and n down to the nearest half-odd
    integer, where the closed form above applies, and subtracts the P-term
    partial sum at the original orders:

        bound  = closed(ceil(m), floor_half(n), r, B) - truncated(p, P)
        actual = adaptive(p, 1e-14) - truncated(p, P)

    so the slack reduces to closed(rounded) - adaptive(p), independent of P.
    Rounding multiplies series term k by

        rho_k = r^(-(ceil(m)-m) - 2(n-floor_half(n)))
                * gamma((ceil(m)+1)/2 + k, B^2) / gamma((m+1)/2 + k, B^2)
                * Gamma(n+k+1) / Gamma(floor_half(n)+k+1),

    which is nondecreasing in k, so the bound dominates termwise whenever
    rho_0 >= 1 (always for integer m with r <= 1).  The advertised regime is
    m > n; the reported slack is honest either way and does go negative on
    parts of that regime where rho_0 < 1 (m = 2, n = 1, r = 2: rho_0 = 0.564),
    so treat regime_ok as the claim's domain, not a guarantee.
    """
    mc = float(math.ceil(p.m))
    nf = floor_half(p.n)
    if nf < 0.5:
        raise DomainError(
            f"bound needs floor_half(n) >= 0.5, got n={p.n} -> {nf}")
    truncated = toronto_series_truncated(p, terms).value
    bound = toronto_closed_form_half(mc, nf, p.r, p.B) - truncated
    residual = toronto_series_adaptive(p, tol=ADAPTIVE_TOL_MIN).value - truncated
    return BoundReport(bound_value=bound, dominated_quantity=residual,
                       regime_ok=p.m > p.n, slack=bound - residual)


def toronto_upper_bound_1f1(m: float, n: float, r: float) -> float:
    """1F1 upper bound on T_B(m, n, r), independent of B:

        Gamma((m+1)/2) 1F1((m+1)/2; n+1; r^2) / (r^(m-2n-1) Gamma(n+1) e^(r^2)).

    This is the B -> inf limit of the series (every lower gamma completed),
    hence an upper bound for all finite B; it doubles as an approximation
    once B^2 is large against the retained gamma orders.  Raises
    TermOverflowError where the 1F1 factor overflows a double (r^2 beyond
    about 700).
    """
    if not (n >= 0.0 and r > 0.0):
        raise DomainError(f"need n >= 0 and r > 0, got n={n}, r={r}")
    if not (m - n > -1.0):
        raise DomainError(f"need m - n > -1, got {m - n}")
    return math.exp(math.lgamma(0.5 * (m + 1.0)) - math.lgamma(n + 1.0)
                    + (2.0 * n - m + 1.0) * math.log(r)
                    - r * r) * kummer_1f1(0.5 * (m + 1.0), n + 1.0, r * r)


def toronto_marcum_residual(m: float, r: float, B: float) -> float:
    """Residual of the identity T_B(m, (m-1)/2, r) = 1 - Q_{(m+1)/2}(r √2, B √2).

    Both sides come from their own adaptive series engines at tol 1e-12; this
    ties the two function families together without touching quadrature.
    """
    if m < 1.0:
        raise DomainError(f"identity needs (m+1)/2 >= 1, got m={m}")
    t = toronto_series_adaptive(TorontoParams(m, 0.5 * (m - 1.0), r, B)).value
    q = marcum_q(0.5 * (m + 1.0), r * math.sqrt(2.0), B * math.sqrt(2.0))
    return abs(t + q - 1.0)


def toronto_t(m: float, n: float, r: float, B: float,
              tol: float = 1e-12) -> float:
    """T_B(m, n, r) by the adaptive series."""
    return toronto_series_adaptive(TorontoParams(m, n, r, B), tol=tol).value
