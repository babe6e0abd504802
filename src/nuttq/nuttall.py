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

The terms come from one log-domain kernel call for Gamma((m+n+1)/2, b^2/2)
per value; every later gamma factor is stepped upward by
Gamma(s+1, x) = s Gamma(s, x) + x^s e^-x.  Upward is the stable direction
for the upper incomplete gamma: the step only adds positive quantities, so
rounding errors stay relative and never cancel (_walk carries the ratio
form of it).  _walk sums the terms in the loop that makes them and applies
the stopping rule there; each checkpoint it yields is a SeriesResult, and
the truncated and adaptive sums and special.truncation_reports's
truncation-bound reports read them, one walk per value or per report.

Also here: the finite closed form for half-odd-integer orders (whose
incomplete gammas depend on the binomial index alone, so each is computed
once per value and shared by every outer term), the ceiling-rounded
truncation error bounds, the Kummer 1F1 upper bound and the generalized
Marcum Q wrapper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import DomainError, TermOverflowError
from .special import (
    DEFAULT_MAX_TERMS,
    SERIES_TOL,
    TERM_MAX,
    TERM_MIN,
    BoundReport,
    SeriesResult,
    _half_gamma_upper,
    ceil_half,
    check_finite,
    classify_order,
    exp_checked,
    exp_times_checked,
    half_odd_bessel_sum,
    kummer_1f1,
    not_converged,
    truncation_reports,
    upper_inc_gamma_log,
    walk_adaptive,
    walk_truncated,
)

__all__ = [
    "NuttallParams",
    "nuttall_series_truncated",
    "nuttall_series_adaptive",
    "nuttall_half_integer_closed",
    "nuttall_truncation_bound",
    "nuttall_truncation_bounds",
    "nuttall_upper_bound_1f1",
    "marcum_q",
    "nuttall_q",
    "nuttall_q_normalized",
]


@dataclass(frozen=True, slots=True)
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
        # the common case in one test, four floats in range; anything
        # else meets the checks below, which name the first field that fails
        m, n, a, b = self.m, self.n, self.a, self.b
        if (type(m) is type(n) is type(a) is type(b) is float
                and 0.0 <= m < math.inf and 0.0 <= n < math.inf
                and 0.0 < a < math.inf and 0.0 <= b < math.inf):
            return
        check_finite(m=self.m, n=self.n, a=self.a, b=self.b)
        if not (self.m >= 0.0):
            raise DomainError(f"m must be >= 0, got {self.m}")
        if not (self.n >= 0.0):
            raise DomainError(f"n must be >= 0, got {self.n}")
        if not (self.a > 0.0):
            raise DomainError(f"a must be > 0, got {self.a}")
        if not (self.b >= 0.0):
            raise DomainError(f"b must be >= 0, got {self.b}")


def _term(p: NuttallParams, l: int, log_gamma: float) -> float:
    """Term l in log domain from its log gamma factor, through the overflow
    gate special.exp_checked."""
    lg = (2 * l * math.log(p.a) - 0.5 * p.a * p.a + log_gamma
          - math.lgamma(l + 1.0) - math.lgamma(p.n + l + 1.0)
          - 0.5 * (p.n - p.m + 2 * l + 1) * math.log(2.0))
    return exp_checked(lg, "series term overflows at l={} for {}", l, p)


def _walk(p: NuttallParams, depths: Sequence[int], tol: float,
          max_terms: int) -> Iterator[SeriesResult]:
    """The series summed from l = 0 in one loop, with one incomplete gamma
    kernel call per value; yields the checkpoints of special.Walk.

    With x = b^2/2, s = (m+n+1)/2 and h_l = x^(s+l) e^-x / Gamma(s+l, x),
    Gamma(s+l+1, x) = (s+l+h_l) Gamma(s+l, x) gives

        h_{l+1} = x h_l / (s+l+h_l),
        t_{l+1} = t_l (a^2/2) (s+l+h_l) / ((l+1)(n+l+1)).

    Every quantity is positive, so each step adds relative rounding error
    and never cancels.  The stop rule of special.Walk takes the ratio
    majorant

        rho_l = (a^2/2) (K+l) / ((l+1)(n+l+1)),  K = x + max(s, 1),

    which bounds t_{i+1}/t_i at every i >= l: s+l+h_l <= K+l.  Where
    s+l >= 1, Gamma(s+l, x) >= x^(s+l-1) integral_x^inf e^-t dt gives
    h_l <= x.  Where s+l < 1 (l = 0, s < 1), the continued fraction
    Gamma(s, x) = x^s e^-x / (x+1-s - (1-s)/(x+3-s - ...)) has a
    denominator below x+1-s, so h_0 <= x+1-s and s+h_0 <= x+1 = K.
    (K = max(s+x, 1) fails there: h_0 = 1.319 at s = 0.5, x = 1.)  K >= 1
    makes rho_l nonincreasing in l.

    A running term outside [TERM_MIN, TERM_MAX] is recomputed in log
    domain, from its own kernel call for Gamma((m+n+1)/2 + l, x): that
    keeps terms which underflow before the hump (large a) and decides
    overflow exactly as the log-domain term does.  l and the marks it
    meets are floats, for the float fast path that special's module
    docstring describes; a checkpoint's terms_used is int(l) + 1.
    """
    x = 0.5 * p.b * p.b
    s = 0.5 * (p.m + p.n + 1)
    n = p.n
    half_a2 = 0.5 * p.a * p.a
    log_gamma = upper_inc_gamma_log(s, x)
    t = _term(p, 0, log_gamma)
    h = math.exp(s * math.log(x) - x - log_gamma) if x > 0.0 else 0.0
    marks = iter(depths)
    mark = next(marks, 0) - 1.0
    last = max_terms - 1.0
    lo, hi = TERM_MIN, TERM_MAX
    big_k = x + max(s, 1.0)
    total = 0.0
    stop = None
    l = 0.0
    while True:
        total += t
        if l == mark:
            yield SeriesResult(total, int(l) + 1, t, True)
            mark = next(marks, 0) - 1.0
            if stop is not None and mark < 0.0:
                yield stop
                return
        if t <= tol * total and stop is None:
            rho = half_a2 * (big_k + l) / ((l + 1.0) * (n + l + 1.0))
            if rho < 1.0 and t * rho <= tol * total * (1.0 - rho):
                stop = SeriesResult(total, int(l) + 1, t, True)
                if mark < 0.0:
                    yield stop
                    return
        if l == last:
            raise not_converged(p, tol, max_terms, total)
        step = s + l + h
        t *= half_a2 * step / ((l + 1.0) * (n + l + 1.0))
        h = x * h / step
        l += 1.0
        if not lo <= t <= hi:
            t = _term(p, int(l),
                      upper_inc_gamma_log(0.5 * (p.m + p.n + 2.0 * l + 1.0), x))


def nuttall_series_truncated(p: NuttallParams, terms: int) -> SeriesResult:
    """Plain P-term partial sum (l = 0..P-1), read off the walk by
    special.walk_truncated."""
    return walk_truncated(_walk, p, terms)


def nuttall_series_adaptive(p: NuttallParams, tol: float = SERIES_TOL,
                            max_terms: int = DEFAULT_MAX_TERMS) -> SeriesResult:
    """Sum the series until the tail is proven at most tol * partial sum,
    by the ratio majorant of _walk (special.walk_adaptive)."""
    return walk_adaptive(_walk, p, tol, max_terms)


def nuttall_half_integer_closed(p: NuttallParams) -> float:
    """Finite closed form of the normalized Q for half-odd-integer orders.

    Requires m = mu + 1/2, n = nu + 1/2 with integers mu >= nu >= 0.  Uses the
    elementary form of I_{nu+1/2} to split the integral into incomplete gamma
    functions of half-integer order:

        Qn = a^-n (2 pi a)^(-1/2) sum_{k=0}^{nu} c_k a^-k
             [(-1)^k Jm(mu-k) + (-1)^(nu+1) Jp(mu-k)],
        c_k = (nu+k)! / (2^k k! (nu-k)!),

    where Jm, Jp are binomial sums over incomplete gammas at (b-a)^2/2 and
    (b+a)^2/2, summed by the closed-form core special.half_odd_bessel_sum
    with x = y = a and weights 2^((l-1)/2).  sgn(b - a) = 0 at b = a
    removes the lower-gamma term exactly, so the seam needs no convention.
    The gamma of binomial index l is the same in every Jm(mu-k), Jp(mu-k),
    so each list is built once per value, by the half-integer ladder
    special._half_gamma_upper: no kernel call per value.  A float
    overflow on the way (a^-k at a near 1e-200, or a prefactor that
    underflows to 0) raises TermOverflowError with log_term inf.
    """
    if classify_order(p.m) != "half-odd" or classify_order(p.n) != "half-odd":
        raise DomainError(
            f"closed form needs half-odd-integer orders, got m={p.m}, n={p.n}")
    mu = round(p.m - 0.5)
    nu = round(p.n - 0.5)
    if mu < nu:
        raise DomainError(f"closed form needs m >= n, got m={p.m} < n={p.n}")
    a, b = p.a, p.b
    try:
        upper_m = _half_gamma_upper(mu + 1, 0.5 * (b - a) ** 2)
        upper_p = _half_gamma_upper(mu + 1, 0.5 * (b + a) ** 2)
        # Gamma(s) - sgn(b-a)^(l+1) gamma(s, xm) without cancelling: it is
        # 2 Gamma(s) - Gamma(s, xm) where the power is -1 and Gamma(s, xm)
        # elsewhere; on the seam xm = 0 and the ladder gives Gamma(s)
        minus = [2.0 * math.gamma(0.5 * (l + 1)) - g if b < a and l % 2 == 0
                 else g for l, g in enumerate(upper_m)]
        weights = [2.0 ** (0.5 * (l - 1)) for l in range(mu + 1)]
        total = half_odd_bessel_sum(nu, mu, a, a, weights, minus, upper_p)
        return total / (a ** p.n * math.sqrt(2.0 * math.pi * a))
    except (OverflowError, ZeroDivisionError):
        # for tiny a, a^-k overflows or the prefactor underflows to 0; far
        # outside the box, (b +- a)^2 or Gamma((l+1)/2) overflows
        raise TermOverflowError(
            f"Nuttall half-odd closed form overflows for {p}",
            log_term=math.inf) from None


def nuttall_truncation_bounds(p: NuttallParams,
                              depths: Sequence[int]) -> list[BoundReport]:
    """Closed-form bounds on the P-term truncation error at each depth P in
    depths, with their slack, from one walk of the series.

    Rounds both orders up to the nearest half-odd integers, where the exact
    value has a finite closed form that dominates the original function
    termwise, and subtracts the P-term partial sum at the original orders:

        bound  = closed(ceil_half(m), ceil_half(n), a, b) - truncated(p, P)
        actual = adaptive(p, 1e-14) - truncated(p, P)

    The reported slack therefore reduces to closed(rounded) - adaptive(p) and
    does not depend on P.  special.truncation_reports walks the terms once
    for every depth; each value has the bits a separate walk would give.
    """
    mc, nc = ceil_half(p.m), ceil_half(p.n)
    if mc < nc:
        raise DomainError(
            f"bound needs ceil_half(m) >= ceil_half(n), got {mc} < {nc}")
    return truncation_reports(
        _walk, p, depths,
        lambda: nuttall_half_integer_closed(NuttallParams(mc, nc, p.a, p.b)),
        p.b > 0.0)


def nuttall_truncation_bound(p: NuttallParams, terms: int) -> BoundReport:
    """The one-depth nuttall_truncation_bounds report."""
    return nuttall_truncation_bounds(p, [terms])[0]


def nuttall_upper_bound_1f1(m: float, n: float, a: float) -> float:
    """1F1 upper bound on the normalized Q, independent of b and tight at b=0:

        Gamma(c) 1F1(c; n+1; a^2/2) / (Gamma(n+1) 2^((n-m+1)/2) e^(a^2/2)),

    c = (m+n+1)/2.  Equals the b = 0 function value exactly (the series with
    complete gamma factors), hence dominates for every b >= 0; it is close,
    not just valid, when b <= (2/3) min(a, m, n).  n = 0 is allowed: the
    1F1 denominator parameter becomes 1, which is not a pole, and the b = 0
    equality still holds term by term.  So is m = 0, where c stays
    positive.  Raises TermOverflowError where the 1F1 factor overflows a
    double (a^2/2 beyond about 700), where the prefactor's log passes
    the overflow gate of special.exp_checked (lgamma(c) at a large m), and
    where the two factors are finite but their product is not (m = 300,
    n = 0, a = 5), through special.exp_times_checked.
    """
    if not (m >= 0.0 and n >= 0.0 and a > 0.0):
        raise DomainError(f"need m >= 0, n >= 0, a > 0, got m={m}, n={n}, a={a}")
    c = 0.5 * (m + n + 1.0)
    half_a2 = 0.5 * a * a
    lg = (math.lgamma(c) - math.lgamma(n + 1.0)
          - 0.5 * (n - m + 1.0) * math.log(2.0) - half_a2)
    return exp_times_checked(lg, lambda: kummer_1f1(c, n + 1.0, half_a2),
                             "1F1 bound overflows at m={}, n={}, a={}", m, n, a)


def marcum_q(m: float, a: float, b: float, tol: float = SERIES_TOL) -> float:
    """Generalized Marcum Q_m(a, b), evaluated as Qn_{m,m-1}(a, b).

    The a^(1-m) prefactor of the usual definition cancels against the a^n
    normalization, so no rescaling is needed.  Q_m(a, 0) = 1 exactly; values
    are never clamped to [0, 1].
    """
    if m < 1.0:
        raise DomainError(f"Marcum order must be >= 1, got m={m}")
    return nuttall_series_adaptive(NuttallParams(m, m - 1.0, a, b), tol=tol).value


def nuttall_q_normalized(m: float, n: float, a: float, b: float,
                         tol: float = SERIES_TOL) -> float:
    """Qn_{m,n}(a, b) = Q_{m,n}(a, b) / a^n by the adaptive series."""
    return nuttall_series_adaptive(NuttallParams(m, n, a, b), tol=tol).value


def nuttall_q(m: float, n: float, a: float, b: float,
              tol: float = SERIES_TOL) -> float:
    """Unnormalized Nuttall Q_{m,n}(a, b) = a^n * Qn_{m,n}(a, b): the
    normalized series value times a ** n, the bits `nuttq eval nuttall`
    prints."""
    return nuttall_q_normalized(m, n, a, b, tol=tol) * a ** n
