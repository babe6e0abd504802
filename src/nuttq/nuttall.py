"""Nuttall Q-function evaluators, closed forms, and error bounds.

The central object is the normalized Nuttall Q-function

    Qn_{m,n}(a, b) = a^-n * integral_b^inf x^m e^(-(x^2+a^2)/2) I_n(ax) dx,

evaluated through its series in the lower summation index,

    Qn_{m,n}(a, b) = sum_{l>=0} a^(2l) e^(-a^2/2)
                     * Gamma((m+n+2l+1)/2, b^2/2)
                     / (l! Gamma(n+l+1) 2^((n-m+2l+1)/2)),

where Gamma(., .) is the upper incomplete gamma function.  All terms are
positive, so partial sums increase monotonically to the limit and the
truncation error is exactly the series tail.

Also here: the finite closed form for half-odd-integer orders, the double-sum
route for integer orders, the ceiling-rounded truncation error bound, the
Kummer 1F1 upper bound, the generalized Marcum Q wrapper, and the three-term
recursion residual used as a consistency check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, NonConvergenceError, TermOverflowError
from .special import (
    LOG_OVERFLOW,
    BoundReport,
    SeriesResult,
    bessel_i_scaled,
    ceil_half,
    check_finite,
    classify_order,
    kummer_1f1,
    lower_inc_gamma,
    sgn,
    upper_inc_gamma,
    upper_inc_gamma_log,
)

__all__ = [
    "NuttallParams",
    "nuttall_series_truncated",
    "nuttall_series_adaptive",
    "nuttall_integer_series",
    "nuttall_half_integer_closed",
    "nuttall_truncation_bound",
    "nuttall_upper_bound_1f1",
    "nuttall_recursion_residual",
    "marcum_q",
    "nuttall_q",
    "nuttall_q_normalized",
]

MAX_TRUNC_TERMS = 500
_DEFAULT_MAX_TERMS = 10_000
ADAPTIVE_TOL_MIN = 1e-14
# consecutive below-threshold terms required before an adaptive sum stops
_STOP_RUN = 3


@dataclass(frozen=True)
class NuttallParams:
    """Arguments of Q_{m,n}(a, b), validated once at construction.

    Every field must be finite.  a = 0 is excluded; the a -> 0 limit is the
    l = 0 series term and callers wanting it pass a small positive a instead.
    """

    m: float
    n: float
    a: float
    b: float

    def __post_init__(self):
        check_finite(m=self.m, n=self.n, a=self.a, b=self.b)
        if not (self.m >= 0.0):
            raise DomainError(f"m must be >= 0, got {self.m}")
        if not (self.n >= 0.0):
            raise DomainError(f"n must be >= 0, got {self.n}")
        if not (self.a > 0.0):
            raise DomainError(f"a must be > 0, got {self.a}")
        if not (self.b >= 0.0):
            raise DomainError(f"b must be >= 0, got {self.b}")


def _term_log(p: NuttallParams, l: int) -> float:
    order = 0.5 * (p.m + p.n + 2 * l + 1)
    return (2 * l * math.log(p.a) - 0.5 * p.a * p.a
            + upper_inc_gamma_log(order, 0.5 * p.b * p.b)
            - math.lgamma(l + 1.0) - math.lgamma(p.n + l + 1.0)
            - 0.5 * (p.n - p.m + 2 * l + 1) * math.log(2.0))


def _term(p: NuttallParams, l: int) -> float:
    lg = _term_log(p, l)
    if lg > LOG_OVERFLOW:
        raise TermOverflowError(
            f"series term overflows at l={l} for {p}", log_term=lg)
    return math.exp(lg)


def _check_terms(terms: int) -> None:
    if not (1 <= terms <= MAX_TRUNC_TERMS):
        raise DomainError(f"terms must be in [1, {MAX_TRUNC_TERMS}], got {terms}")


def nuttall_series_truncated(p: NuttallParams, terms: int,
                             polynomial_weights: bool = False) -> SeriesResult:
    """Fixed-depth partial sum of the normalized series.

    The default is the plain P-term partial sum (l = 0..P-1), whose distance
    to the limit is exactly the series tail.  ``polynomial_weights=True``
    instead evaluates the degree-P polynomial variant: terms l = 0..P each
    multiplied by w_l = Gamma(P+l) P^(1-2l) / Gamma(P-l+1).  The weights tend
    to 1 as P grows but visibly distort moderate-P sums (worse than 1e-3
    relative at P=20 on typical arguments), so they are off by default.
    """
    _check_terms(terms)
    top = terms + 1 if polynomial_weights else terms
    total = 0.0
    last = 0.0
    for l in range(top):
        t = _term(p, l)
        if polynomial_weights:
            t *= math.exp(math.lgamma(terms + l) + (1 - 2 * l) * math.log(terms)
                          - math.lgamma(terms - l + 1.0))
        total += t
        last = t
    return SeriesResult(value=total, terms_used=top, last_term_abs=last,
                        converged=True)


def nuttall_series_adaptive(p: NuttallParams, tol: float = 1e-12,
                            max_terms: int = _DEFAULT_MAX_TERMS) -> SeriesResult:
    """Sum the normalized series until terms stay below tol * partial sum.

    Stops only after _STOP_RUN consecutive sub-threshold terms, which guards
    against the hump the terms go through near l ~ a^2/2.
    """
    if tol < ADAPTIVE_TOL_MIN:
        raise DomainError(f"tol must be >= {ADAPTIVE_TOL_MIN}, got {tol}")
    total = 0.0
    below = 0
    for l in range(max_terms):
        t = _term(p, l)
        total += t
        if t < tol * total:
            below += 1
            if below >= _STOP_RUN:
                return SeriesResult(value=total, terms_used=l + 1,
                                    last_term_abs=t, converged=True)
        else:
            below = 0
    raise NonConvergenceError(
        f"series for {p} did not meet tol={tol} in {max_terms} terms",
        partial_value=total, terms=max_terms)


def nuttall_integer_series(p: NuttallParams, terms: int) -> SeriesResult:
    """P-term value via the double sum for integer orders with m+n odd.

    Each upper incomplete gamma factor Gamma(L+1, b^2/2), L = (m+n-1)/2 + l,
    has integer order and is therefore a finite sum, giving

        Qn = sum_l sum_{k=0}^{L} A0 a^(2l) b^(2k) Gamma((m+n+1)/2 + l)
             / (l! k! Gamma(n+l+1) 2^(l+k)),
        A0 = 2^((m-n-1)/2) e^(-(a^2+b^2)/2).

    Mathematically identical to nuttall_series_truncated at equal depth, but a
    separate numerical route: no incomplete gamma kernel is involved at all.
    m+n even is rejected because L must be an integer.
    """
    _check_terms(terms)
    mi, ni = round(p.m), round(p.n)
    if abs(p.m - mi) > 1e-9 or abs(p.n - ni) > 1e-9:
        raise DomainError(f"integer route needs integer orders, got {p.m}, {p.n}")
    if (mi + ni) % 2 != 1:
        raise DomainError(f"integer route needs m+n odd, got m+n={mi + ni}")
    a0_log = 0.5 * (p.m - p.n - 1) * math.log(2.0) - 0.5 * (p.a ** 2 + p.b ** 2)
    half_b2 = 0.5 * p.b * p.b
    total = 0.0
    last = 0.0
    for l in range(terms):
        big_l = (mi + ni - 1) // 2 + l
        inner = 1.0
        u = 1.0
        for k in range(1, big_l + 1):
            u *= half_b2 / k
            inner += u
        lg = (a0_log + 2 * l * math.log(p.a) + math.lgamma(big_l + 1.0)
              - math.lgamma(l + 1.0) - math.lgamma(ni + l + 1.0)
              - l * math.log(2.0))
        if lg > LOG_OVERFLOW:
            raise TermOverflowError(
                f"double series term overflows at l={l} for {p}", log_term=lg)
        last = math.exp(lg) * inner
        total += last
    return SeriesResult(value=total, terms_used=terms, last_term_abs=last,
                        converged=True)


def nuttall_half_integer_closed(p: NuttallParams) -> float:
    """Finite closed form of the normalized Q for half-odd-integer orders.

    Requires m = mu + 1/2, n = nu + 1/2 with integers mu >= nu >= 0.  Uses the
    elementary form of I_{nu+1/2} to split the integral into incomplete gamma
    functions of half-integer order:

        Qn = a^-n (2 pi a)^(-1/2) sum_{k=0}^{nu} c_k a^-k
             [(-1)^k Jm(mu-k) + (-1)^(nu+1) Jp(mu-k)],
        c_k = (nu+k)! / (2^k k! (nu-k)!),

    where Jm, Jp are binomial sums over incomplete gammas at (b-a)^2/2 and
    (b+a)^2/2.  sgn(b - a) = 0 at b = a removes the lower-gamma term exactly,
    so the seam needs no convention.
    """
    if classify_order(p.m) != "half-odd" or classify_order(p.n) != "half-odd":
        raise DomainError(
            f"closed form needs half-odd-integer orders, got m={p.m}, n={p.n}")
    mu = round(p.m - 0.5)
    nu = round(p.n - 0.5)
    if mu < nu:
        raise DomainError(f"closed form needs m >= n, got m={p.m} < n={p.n}")
    a, b = p.a, p.b
    xm = 0.5 * (b - a) ** 2
    xp = 0.5 * (b + a) ** 2
    sm = sgn(b - a)

    def j_minus(s: int) -> float:
        acc = 0.0
        for l in range(s + 1):
            g = math.gamma(0.5 * (l + 1))
            if sm != 0:
                g -= sm ** (l + 1) * lower_inc_gamma(0.5 * (l + 1), xm)
            acc += math.comb(s, l) * a ** (s - l) * 2.0 ** (0.5 * (l - 1)) * g
        return acc

    def j_plus(s: int) -> float:
        acc = 0.0
        for l in range(s + 1):
            acc += (math.comb(s, l) * (-a) ** (s - l) * 2.0 ** (0.5 * (l - 1))
                    * upper_inc_gamma(0.5 * (l + 1), xp))
        return acc

    total = 0.0
    for k in range(nu + 1):
        c_k = (math.factorial(nu + k)
               / (2.0 ** k * math.factorial(k) * math.factorial(nu - k)))
        total += (c_k * a ** (-k)
                  * ((-1) ** k * j_minus(mu - k)
                     + (-1) ** (nu + 1) * j_plus(mu - k)))
    return total / (a ** p.n * math.sqrt(2.0 * math.pi * a))


def nuttall_truncation_bound(p: NuttallParams, terms: int) -> BoundReport:
    """Closed-form bound on the P-term truncation error, with its slack.

    Rounds both orders up to the nearest half-odd integers, where the exact
    value has a finite closed form that dominates the original function
    termwise, and subtracts the P-term partial sum at the original orders:

        bound  = closed(ceil_half(m), ceil_half(n), a, b) - truncated(p, P)
        actual = adaptive(p, 1e-14) - truncated(p, P)

    The reported slack therefore reduces to closed(rounded) - adaptive(p) and
    does not depend on P.
    """
    mc, nc = ceil_half(p.m), ceil_half(p.n)
    if mc < nc:
        raise DomainError(
            f"bound needs ceil_half(m) >= ceil_half(n), got {mc} < {nc}")
    truncated = nuttall_series_truncated(p, terms).value
    bound = nuttall_half_integer_closed(
        NuttallParams(mc, nc, p.a, p.b)) - truncated
    residual = nuttall_series_adaptive(p, tol=ADAPTIVE_TOL_MIN).value - truncated
    return BoundReport(bound_value=bound, dominated_quantity=residual,
                       regime_ok=p.b > 0.0, slack=bound - residual)


def nuttall_upper_bound_1f1(m: float, n: float, a: float) -> float:
    """1F1 upper bound on the normalized Q, independent of b and tight at b=0:

        Gamma(c) 1F1(c; n+1; a^2/2) / (Gamma(n+1) 2^((n-m+1)/2) e^(a^2/2)),

    c = (m+n+1)/2.  Equals the b = 0 function value exactly (the series with
    complete gamma factors), hence dominates for every b >= 0; it is close,
    not just valid, when b <= (2/3) min(a, m, n).  n = 0 is allowed: the
    1F1 denominator parameter becomes 1, which is not a pole, and the b = 0
    equality still holds term by term.  Raises TermOverflowError where the
    1F1 factor overflows a double (a^2/2 beyond about 700).
    """
    if not (m > 0.0 and n >= 0.0 and a > 0.0):
        raise DomainError(f"need m > 0, n >= 0, a > 0, got m={m}, n={n}, a={a}")
    c = 0.5 * (m + n + 1.0)
    half_a2 = 0.5 * a * a
    return math.exp(math.lgamma(c) - math.lgamma(n + 1.0)
                    - 0.5 * (n - m + 1.0) * math.log(2.0)
                    - half_a2) * kummer_1f1(c, n + 1.0, half_a2)


def nuttall_recursion_residual(p: NuttallParams) -> float:
    """Absolute residual of the three-term recursion for unnormalized Q:

        Q_{m,n} = b^(m-1) e^(-(a^2+b^2)/2) I_n(ab)
                  + a Q_{m-1,n+1} + (m+n-1) Q_{m-2,n}.

    Integer orders with m >= 2 so the lowest index stays in the validated
    domain.  All three values come from the adaptive series at tol 1e-12; the
    residual measures internal consistency, not quadrature agreement.
    """
    mi, ni = round(p.m), round(p.n)
    if abs(p.m - mi) > 1e-9 or abs(p.n - ni) > 1e-9:
        raise DomainError(f"recursion needs integer orders, got {p.m}, {p.n}")
    if mi < 2:
        raise DomainError(f"recursion check needs m >= 2, got m={p.m}")
    a, b = p.a, p.b
    lhs = nuttall_q(p.m, p.n, a, b)
    boundary = b ** (mi - 1) * math.exp(-0.5 * (a - b) ** 2) \
        * bessel_i_scaled(p.n, a * b)
    rhs = (boundary + a * nuttall_q(p.m - 1.0, p.n + 1.0, a, b)
           + (p.m + p.n - 1.0) * nuttall_q(p.m - 2.0, p.n, a, b))
    return abs(lhs - rhs)


def marcum_q(m: float, a: float, b: float, tol: float = 1e-12) -> float:
    """Generalized Marcum Q_m(a, b), evaluated as Qn_{m,m-1}(a, b).

    The a^(1-m) prefactor of the usual definition cancels against the a^n
    normalization, so no rescaling is needed.  Q_m(a, 0) = 1 exactly; values
    are never clamped to [0, 1].
    """
    if m < 1.0:
        raise DomainError(f"Marcum order must be >= 1, got m={m}")
    return nuttall_series_adaptive(NuttallParams(m, m - 1.0, a, b), tol=tol).value


def nuttall_q_normalized(m: float, n: float, a: float, b: float,
                         tol: float = 1e-12) -> float:
    """Qn_{m,n}(a, b) = Q_{m,n}(a, b) / a^n by the adaptive series."""
    return nuttall_series_adaptive(NuttallParams(m, n, a, b), tol=tol).value


def nuttall_q(m: float, n: float, a: float, b: float,
              tol: float = 1e-12) -> float:
    """Unnormalized Nuttall Q_{m,n}(a, b) = a^n * Qn_{m,n}(a, b)."""
    v = nuttall_q_normalized(m, n, a, b, tol=tol)
    if v <= 0.0:
        return 0.0
    # apply a^n in log domain so extreme magnitudes don't round through
    # subnormals on the way
    return math.exp(math.log(v) + n * math.log(a))
