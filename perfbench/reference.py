"""40-digit mpmath references for the benchmark's checks.

Both functions are summed from their single series with mpmath at 50
working digits, so the reference shares no code and no floating-point
arithmetic with the library.  Each incomplete gamma is evaluated once by
``mpmath.gammainc`` and the rest are stepped by a recurrence in its stable
direction: upward for the upper gamma of the Nuttall series (every term
positive) and downward for the lower gamma of the Toronto series (upward
cancels once the order passes B^2).  Before a run trusts these values,
``verify_golden`` checks them against every entry of the package's
quadrature-derived golden file within that entry's stored error estimate.
"""

from __future__ import annotations

import math
from pathlib import Path

import mpmath as mp

DPS = 50
_CUTOFF = mp.mpf(10) ** -48


def nuttall_norm(m: float, n: float, a: float, b: float) -> float:
    """Normalized Nuttall Q_{m,n}(a, b) / a^n."""
    with mp.workdps(DPS):
        m, n, a, b = (mp.mpf(v) for v in (m, n, a, b))
        s = (m + n + 1) / 2
        x = b * b / 2
        g = mp.gammainc(s, x)                       # Gamma(s + l, x)
        xs = x ** s * mp.exp(-x) if x > 0 else mp.mpf(0)  # x^(s+l) e^-x
        c = mp.exp(-a * a / 2) / (mp.gamma(n + 1) * mp.power(2, (n - m + 1) / 2))
        # past l ~ 2a^2 + 20 the term ratio is below 3/4 and falling, so the
        # tail is under 3x the last term
        l_min = int(2 * float(a) ** 2) + 20
        total = mp.mpf(0)
        l = 0
        while True:
            t = c * g
            total += t
            if l > l_min and t <= _CUTOFF * total:
                return float(total)
            g = (s + l) * g + xs
            xs *= x
            c *= a * a / (2 * (l + 1) * (n + l + 1))
            l += 1


def toronto(m: float, n: float, r: float, big_b: float) -> float:
    """Incomplete Toronto function T_B(m, n, r)."""
    with mp.workdps(DPS):
        mf, nf, rf = float(m), float(n), float(r)
        m, n, r, big_b = (mp.mpf(v) for v in (m, n, r, big_b))
        c = (m + 1) / 2
        x = big_b * big_b
        log_w0 = float((2 * n - m + 1) * mp.log(r) - r * r - mp.loggamma(n + 1))
        log_t0 = log_w0 + float(mp.log(mp.gammainc(c, 0, x)))
        # top index: the complete-gamma majorant of term k is below
        # e^-127 * term 0, past k = 4r^2 + c where the majorant's ratio is
        # under 1/2 and falling
        top = int(4 * rf * rf + 0.5 * (mf + 1)) + 1
        while True:
            log_u = ((2 * (nf + top) - mf + 1) * math.log(rf) - rf * rf
                     + math.lgamma(0.5 * (mf + 1) + top)
                     - math.lgamma(top + 1.0) - math.lgamma(nf + top + 1.0))
            if log_u < log_t0 - 127.0:
                break
            top += 8
        g = mp.gammainc(c + top, 0, x)              # gamma(c + k, x), k = top
        w = r ** (2 * (n + top) - m + 1) / (mp.factorial(top) * mp.gamma(n + top + 1))
        ex = mp.exp(-x)
        total = w * g
        for k in range(top, 0, -1):
            g = (g + x ** (c + k - 1) * ex) / (c + k - 1)
            w *= k * (n + k) / (r * r)
            total += w * g
        return float(total * mp.exp(-r * r))


def nuttall_bound_1f1(m: float, n: float, a: float) -> float:
    """The 1F1 upper bound formula of the normalized Nuttall Q."""
    with mp.workdps(DPS):
        m, n, a = (mp.mpf(v) for v in (m, n, a))
        c = (m + n + 1) / 2
        h = a * a / 2
        return float(mp.gamma(c) * mp.hyp1f1(c, n + 1, h)
                     / (mp.gamma(n + 1) * mp.power(2, (n - m + 1) / 2) * mp.exp(h)))


def toronto_bound_1f1(m: float, n: float, r: float) -> float:
    """The 1F1 upper bound formula of the incomplete Toronto function."""
    with mp.workdps(DPS):
        m, n, r = (mp.mpf(v) for v in (m, n, r))
        c = (m + 1) / 2
        return float(mp.gamma(c) * mp.hyp1f1(c, n + 1, r * r)
                     * r ** (2 * n - m + 1) / (mp.gamma(n + 1) * mp.exp(r * r)))


def golden_value(kind: str, m: float, n: float, p3: float, p4: float) -> float:
    """Reference in the golden file's scale: unnormalized Nuttall Q,
    normalized Q_{m,m-1} for Marcum, T_B for Toronto."""
    if kind == "nuttall":
        return nuttall_norm(m, n, p3, p4) * p3 ** n
    if kind == "marcum":
        return nuttall_norm(m, m - 1.0, p3, p4)
    if kind == "toronto":
        return toronto(m, n, p3, p4)
    raise ValueError(f"unknown golden kind {kind!r}")


def verify_golden(path: Path) -> list[str]:
    """Compare the reference with every golden entry; return the misses.

    The golden file holds quadrature values with their error estimates, so
    this ties the series reference to the integral definitions.
    """
    misses = []
    for line in path.read_text().splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        kind, *nums = line.split()
        m, n, p3, p4, _tol, value, err = (float(v) for v in nums)
        ref = golden_value(kind, m, n, p3, p4)
        if not abs(ref - value) <= err:
            misses.append(f"{kind} {m} {n} {p3} {p4}: reference {ref!r} "
                          f"vs golden {value!r} +- {err:.3g}")
    return misses
