"""Incomplete Toronto function evaluators, closed forms, and error bounds.

The incomplete Toronto function is

    T_B(m, n, r) = 2 r^(n-m+1) e^(-r^2)
                   * integral_0^B t^(m-n) e^(-t^2) I_n(2rt) dt,

evaluated through its series in the summation index k,

    T_B(m, n, r) = sum_{k>=0} r^(2(n+k)-m+1) gamma((m+1)/2 + k, B^2)
                   / (k! Gamma(n+k+1) e^(r^2)),

with gamma(., .) the lower incomplete gamma function.  Terms are positive, so
partial sums increase monotonically and the truncation error is the tail.

The lower incomplete gamma is stable only downward:
gamma(s, x) = (gamma(s+1, x) + x^s e^-x) / s adds positive quantities,
while the upward step gamma(s+1, x) = s gamma(s, x) - x^s e^-x cancels
once s passes x = B^2.  So _walk makes one log-domain kernel call at the
top of each block of _BLOCK = 32 indices, steps the gamma ratio down
through the block, and carries the terms upward with those ratios, adding
each to the running sum in index order as it is made.  The kernel call
dominates a value's cost, so a value of P terms costs 1 + ceil((P - 1) /
32) calls, plus one for each running term recomputed in log domain.
Smaller blocks make more calls; larger ones make barely fewer (2.1 a value
at 64 against 2.4 at 32 on the seeded box of tests/test_recurrence.py at
tol 1e-12) and are no faster.  Each checkpoint the walk yields is a
SeriesResult; the truncated and adaptive sums and
special.truncation_reports's truncation-bound reports read them, one walk
per value or per report.

Also here: the finite closed form for integer m with half-odd-integer n
(each of its incomplete gammas computed once per value, as in the Nuttall
closed form), the rounding-based truncation error bounds built on it and
the B-independent 1F1 upper bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import DomainError, TermOverflowError
from .special import (
    SERIES_TOL,
    TERM_MAX,
    TERM_MIN,
    BoundReport,
    SeriesResult,
    _half_gamma_lower,
    check_finite,
    classify_order,
    exp_checked,
    exp_times_checked,
    floor_half,
    half_odd_bessel_sum,
    kummer_1f1,
    lower_inc_gamma,
    lower_inc_gamma_log,
    not_converged,
    sgn,
    truncation_reports,
    walk_adaptive,
    walk_truncated,
)

# terms per incomplete gamma kernel call of the recurrence (see _walk)
_BLOCK = 32
# the offsets i of a block's descent below its top, as floats
_DESCENT = tuple(float(i) for i in range(_BLOCK - 2, -1, -1))

__all__ = [
    "TorontoParams",
    "toronto_series_truncated",
    "toronto_series_adaptive",
    "toronto_closed_form_half",
    "toronto_truncation_bound",
    "toronto_truncation_bounds",
    "toronto_upper_bound_1f1",
    "toronto_t",
]


@dataclass(frozen=True, slots=True)
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
        # the common case in one test, four floats in range (m - n is
        # finite only if m and n are); anything else meets the checks
        # below, which name the first field that fails
        m, n, r, big_b = self.m, self.n, self.r, self.B
        if (type(m) is type(n) is type(r) is type(big_b) is float
                and 0.0 <= n and -1.0 < m - n < math.inf
                and 0.0 < r < math.inf and 0.0 < big_b < math.inf):
            return
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


def _term(p: TorontoParams, k: int, log_gamma: float) -> float:
    """Term k in log domain from its log gamma factor, through the overflow
    gate special.exp_checked."""
    lg = ((2.0 * (p.n + k) - p.m + 1.0) * math.log(p.r) - p.r * p.r
          + log_gamma - math.lgamma(k + 1.0) - math.lgamma(p.n + k + 1.0))
    return exp_checked(lg, "series term overflows at k={} for {}", k, p)


def _walk(p: TorontoParams, depths: Sequence[int], tol: float,
          max_terms: int) -> Iterator[SeriesResult]:
    """The series summed from k = 0 in one loop, with one incomplete gamma
    kernel call for term 0 and one per block of _BLOCK later terms; yields
    the checkpoints of special.Walk.

    With x = B^2, c = (m+1)/2 and v_s = x^s e^-x / gamma(s, x), the ratio
    gamma(s+1, x) / gamma(s, x) = s x / (x + v_{s+1}) gives

        t_{k+1} = t_k r^2 / ((k+1)(n+k+1)) * s x / (x + v_{s+1}),  s = c+k.

    v cannot be stepped upward: gamma(s+1, x) = s gamma(s, x) - x^s e^-x
    cancels once s passes x.  Downward, v_s = s v_{s+1} / (x + v_{s+1})
    adds only positive quantities, so it shrinks the relative error of v.
    So each block of _BLOCK steps takes v from one kernel call at its top
    and steps it down, when the block's first step is due; the terms still
    come out in upward order.  Term 0 keeps a kernel call of its own,
    although one more step of the first block's descent would give v_c:
    log gamma(c, x) = c log x - x - log v_c loses eps |c log x - x| to
    cancellation, up to about 60 eps at B = 8.
    A running term outside [TERM_MIN, TERM_MAX] is recomputed in log domain
    from its own kernel call for gamma(c + k, x), as in the Nuttall series.
    The stop rule of special.Walk takes the ratio majorant

        rho_k = r^2 min(C+k, x) / ((k+1)(n+k+1)),  C = max(c, 1),

    which bounds t_{i+1}/t_i at every i >= k, because gamma(s+1, x) <=
    min(s, x) gamma(s, x): integrate t^s e^-t by parts for s, and use
    t <= x under the integral for x.  C >= 1 makes rho_k nonincreasing in k.
    Where x = B^2 is below TERM_MIN it has lost digits (or is 0.0), and
    gamma(c, x) ~ x^c keeps that error, so the walk makes no kernel call:
    term 0 comes from log gamma(c, B^2) = 2c log B - log c, exact to a
    relative B^2, and is the sum at every depth and the stop.  Each later
    term is below 2^-52 of it (the ratio is at most (rB)^2 / (n+1)), and a
    checkpoint past term 0 reports its last term as 0.0; where rB passes
    2^-26, e^-r^2 underflows and every term is 0.0.
    k, the marks it meets and the descent's offsets are floats, for the
    float fast path that special's module docstring describes; a
    checkpoint's terms_used is int(k) + 1.
    """
    x = p.B * p.B
    c = 0.5 * (p.m + 1.0)
    if x < TERM_MIN:
        t = _term(p, 0, 2.0 * c * math.log(p.B) - math.log(c))
        # the checkpoints, then the stop at term 0
        for depth in (*depths, 1):
            yield SeriesResult(t, depth, t if depth == 1 else 0.0, True)
        return
    n = p.n
    r2 = p.r * p.r
    log_x = math.log(x)
    t = _term(p, 0, lower_inc_gamma_log(c, x))
    marks = iter(depths)
    mark = next(marks, 0) - 1.0
    last = max_terms - 1.0
    lo, hi = TERM_MIN, TERM_MAX
    big_c = max(c, 1.0)
    total = 0.0
    stop = None
    # v[j] = v_{c+k+1} for the step from term k, j = k mod _BLOCK; the
    # first step makes the first block
    j = _BLOCK - 1
    k = 0.0
    while True:
        total += t
        if k == mark:
            yield SeriesResult(total, int(k) + 1, t, True)
            mark = next(marks, 0) - 1.0
            if stop is not None and mark < 0.0:
                yield stop
                return
        if t <= tol * total and stop is None:
            rho = r2 * min(big_c + k, x) / ((k + 1.0) * (n + k + 1.0))
            if rho < 1.0 and t * rho <= tol * total * (1.0 - rho):
                stop = SeriesResult(total, int(k) + 1, t, True)
                if mark < 0.0:
                    yield stop
                    return
        if k == last:
            raise not_converged(p, tol, max_terms, total)
        j += 1
        if j == _BLOCK:
            top = c + (k + _BLOCK)
            w = math.exp(top * log_x - x - lower_inc_gamma_log(top, x))
            v = [w]
            base = c + k + 1.0
            for i in _DESCENT:
                w = (base + i) * w / (x + w)
                v.append(w)
            v.reverse()
            j = 0
        t *= r2 / ((k + 1.0) * (n + k + 1.0)) * (c + k) * x / (x + v[j])
        k += 1.0
        if not lo <= t <= hi:
            t = _term(p, int(k), lower_inc_gamma_log(c + k, x))


def toronto_series_truncated(p: TorontoParams, terms: int) -> SeriesResult:
    """Plain P-term partial sum (k = 0..P-1), read off the walk by
    special.walk_truncated."""
    return walk_truncated(_walk, p, terms)


def toronto_series_adaptive(p: TorontoParams,
                            tol: float = SERIES_TOL) -> SeriesResult:
    """Sum the series until the tail is proven at most tol * partial sum,
    by the ratio majorant of _walk (special.walk_adaptive)."""
    return walk_adaptive(_walk, p, tol)


def _closed_orders(m: float, n: float) -> tuple[int, int]:
    """The integer m and nu = n - 1/2 of toronto_closed_form_half at orders
    m and n, or DomainError where it cannot take them."""
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
    return mi, nu


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

    with c_k = (nu+k)!/(2^k k! (nu-k)!) and g the lower incomplete gamma,
    summed by the closed-form core special.half_odd_bessel_sum with x = 2r,
    y = r and weights 1/2.  sgn(B - r) = 0 at B = r drops the first gamma
    exactly.  Requires m >= 2n (i.e. m >= 2 nu + 1) so every exponent
    s - l stays nonnegative; below that the elementary split diverges
    termwise at t = 0.  The gamma of binomial index l is the same in every
    P1(s), P2(s), and the one at r^2 is shared by both, so each of the three
    lists is built once per value, by the half-integer ladder
    special._half_gamma_lower: at most 2 kernel calls a list, 6 per value
    (4 at B = r and at B = 2r, where (B-r)^2 is r^2 and its list is reused),
    and none where the argument passes every order + 1.  A float
    overflow on the way ((2r)^-k or r^(n-m+1/2) at r near 1e-200) raises
    TermOverflowError with log_term inf.
    """
    mi, nu = _closed_orders(m, n)
    if not (r > 0.0 and B > 0.0):
        raise DomainError(f"need r > 0 and B > 0, got r={r}, B={B}")
    try:
        sm = sgn(B - r)
        # the module's own kernel name, so a rebinding of it sees each call
        x_r, x_m = r * r, (B - r) ** 2
        lower_r, lower_p = (_half_gamma_lower(mi - nu, x, lower_inc_gamma)
                            for x in (x_r, (B + r) ** 2))
        # at B = 2r the two arguments are equal, and so are their lists
        lower_m = (lower_r if x_m == x_r
                   else _half_gamma_lower(mi - nu, x_m, lower_inc_gamma))
        # lower_m[l] is 0.0 at the seam, so the sgn term drops out exactly
        minus = [(-1.0) ** l * gr + sm ** (l + 1) * gm
                 for l, (gr, gm) in enumerate(zip(lower_r, lower_m))]
        plus = [gp - gr for gp, gr in zip(lower_p, lower_r)]
        total = half_odd_bessel_sum(nu, mi - nu - 1, 2.0 * r, r,
                                    [0.5] * (mi - nu), minus, plus)
        return r ** (n - m + 0.5) / math.sqrt(math.pi) * total
    except OverflowError:
        # for tiny r, (2r)^-k or r^(n-m+1/2) overflows; far outside the
        # box, (B +- r)^2 does
        raise TermOverflowError(
            f"Toronto half-odd closed form overflows at m={m}, n={n}, r={r}, B={B}",
            log_term=math.inf) from None


def toronto_truncation_bounds(p: TorontoParams,
                              depths: Iterable[int]) -> list[BoundReport]:
    """Rounding-based bounds on the P-term truncation error at each depth P
    in depths, with their slack, from one walk of the series.

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
    special.truncation_reports walks the terms once for every depth; each
    value has the bits a separate walk would give.  Rounded orders the
    closed form cannot take (ceil(m) < 1, ceil(m) < 2 floor_half(n)) are
    refused first, with the closed form's DomainError, before the depths
    are checked and before any term is walked.
    """
    mc = float(math.ceil(p.m))
    nf = floor_half(p.n)
    if nf < 0.5:
        raise DomainError(
            f"bound needs floor_half(n) >= 0.5, got n={p.n} -> {nf}")
    _closed_orders(mc, nf)
    return truncation_reports(
        _walk, p, depths, lambda: toronto_closed_form_half(mc, nf, p.r, p.B),
        p.m > p.n)


def toronto_truncation_bound(p: TorontoParams, terms: int) -> BoundReport:
    """The one-depth toronto_truncation_bounds report."""
    return toronto_truncation_bounds(p, [terms])[0]


def toronto_upper_bound_1f1(m: float, n: float, r: float) -> float:
    """1F1 upper bound on T_B(m, n, r), independent of B:

        Gamma((m+1)/2) 1F1((m+1)/2; n+1; r^2) / (r^(m-2n-1) Gamma(n+1) e^(r^2)).

    This is the B -> inf limit of the series (every lower gamma completed),
    hence an upper bound for all finite B; it doubles as an approximation
    once B^2 is large against the retained gamma orders.  Raises
    TermOverflowError where the 1F1 factor overflows a double (r^2 beyond
    about 700), where the prefactor's r^(2n-m+1) passes the overflow
    gate of special.exp_checked (m > 2n + 1 at a tiny r), and where the two
    factors are finite but their product is not (m = 690, n = 0, r = 5),
    through special.exp_times_checked.
    """
    if not (n >= 0.0 and r > 0.0):
        raise DomainError(f"need n >= 0 and r > 0, got n={n}, r={r}")
    if not (m - n > -1.0):
        raise DomainError(f"need m - n > -1, got {m - n}")
    lg = (math.lgamma(0.5 * (m + 1.0)) - math.lgamma(n + 1.0)
          + (2.0 * n - m + 1.0) * math.log(r) - r * r)
    return exp_times_checked(
        lg, lambda: kummer_1f1(0.5 * (m + 1.0), n + 1.0, r * r),
        "1F1 bound overflows at m={}, n={}, r={}", m, n, r)


def toronto_t(m: float, n: float, r: float, B: float,
              tol: float = SERIES_TOL) -> float:
    """T_B(m, n, r) by the adaptive series."""
    return toronto_series_adaptive(TorontoParams(m, n, r, B), tol=tol).value
