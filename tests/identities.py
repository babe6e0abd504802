"""Reference routes that the tests compare the evaluators against.

Each is a check on the series evaluators, not an evaluator: the integer
double series, a separate numerical route to the Nuttall partial sums;
the three-term recursion of the unnormalized Nuttall Q; and the identity
that ties the incomplete Toronto function to the Marcum Q.  They import
no name of nuttq that has a leading underscore.  pytest does not collect
this module; the tests import it.
"""

import math

from nuttq import (DomainError, NuttallParams, SeriesResult, TorontoParams,
                   bessel_i_scaled, classify_order, marcum_q, nuttall_q,
                   toronto_series_adaptive)
from nuttq.special import check_terms, exp_checked


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
    check_terms(terms)  # a bad depth is reported before bad orders
    if classify_order(p.m) != "integer" or classify_order(p.n) != "integer":
        raise DomainError(f"integer route needs integer orders, got {p.m}, {p.n}")
    mi, ni = round(p.m), round(p.n)
    if (mi + ni) % 2 != 1:
        raise DomainError(f"integer route needs m+n odd, got m+n={mi + ni}")
    a0_log = 0.5 * (p.m - p.n - 1) * math.log(2.0) - 0.5 * (p.a ** 2 + p.b ** 2)
    half_b2 = 0.5 * p.b * p.b
    total = 0.0
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
        term = exp_checked(lg, "double series term overflows at l={} for {}",
                           l, p) * inner
        total += term
    return SeriesResult(total, terms, term, True)


def nuttall_recursion_residual(p: NuttallParams) -> float:
    """Absolute residual of the three-term recursion for unnormalized Q:

        Q_{m,n} = b^(m-1) e^(-(a^2+b^2)/2) I_n(ab)
                  + a Q_{m-1,n+1} + (m+n-1) Q_{m-2,n}.

    Integer orders with m >= 2 so the lowest index stays in the validated
    domain.  All three values come from the adaptive series at the default
    tol, SERIES_TOL; the residual measures internal consistency, not
    quadrature agreement.
    """
    if classify_order(p.m) != "integer" or classify_order(p.n) != "integer":
        raise DomainError(f"recursion needs integer orders, got {p.m}, {p.n}")
    mi = round(p.m)
    if mi < 2:
        raise DomainError(f"recursion check needs m >= 2, got m={p.m}")
    a, b = p.a, p.b
    lhs = nuttall_q(p.m, p.n, a, b)
    boundary = b ** (mi - 1) * math.exp(-0.5 * (a - b) ** 2) \
        * bessel_i_scaled(p.n, a * b)
    rhs = (boundary + a * nuttall_q(p.m - 1.0, p.n + 1.0, a, b)
           + (p.m + p.n - 1.0) * nuttall_q(p.m - 2.0, p.n, a, b))
    return abs(lhs - rhs)


def toronto_marcum_residual(m: float, r: float, B: float) -> float:
    """Residual of the identity T_B(m, (m-1)/2, r) = 1 - Q_{(m+1)/2}(r √2, B √2).

    Both sides come from their own adaptive series engines at the default
    tol, SERIES_TOL; this ties the two function families together without
    touching quadrature.
    """
    if m < 1.0:
        raise DomainError(f"identity needs (m+1)/2 >= 1, got m={m}")
    t = toronto_series_adaptive(TorontoParams(m, 0.5 * (m - 1.0), r, B)).value
    q = marcum_q(0.5 * (m + 1.0), r * math.sqrt(2.0), B * math.sqrt(2.0))
    return abs(t + q - 1.0)
