"""Independent quadrature oracle for the Nuttall and Toronto integrals.

The series evaluators in :mod:`nuttq.nuttall` and :mod:`nuttq.toronto` are
hand-written on top of the stdlib.  This module computes the same quantities
straight from their integral definitions using scipy's QUADPACK plus a second,
structurally different tanh-sinh scheme, so any bug has to be reproduced
independently three times before it can hide.

Two schemes:

* ``adaptive``: ``scipy.integrate.quad`` with an absolute tolerance budget;
  the reported error estimate plus the tail bound must fit inside the
  accepted error below, or the call raises instead of returning.
* ``gauss`` (the name is kept for callers; the method is tanh-sinh):
  nested tanh-sinh levels (Takahasi & Mori 1974) on t in [-3.25, 3.25],
  from step h = 1/8 (53 nodes) to h = 1/256 (1,665), until two successive
  levels agree within half the accepted error.  The levels nest, so each
  level's new nodes are a strided view of one table of the 1,665 nodes
  of h = 1/256: level 1 (h = 1/8) is [0::32] and level j >= 2
  (h = 2^-(j+2)) is [2^(6-j)::2^(7-j)].  The integrand is called on
  [0::4], the 417 nodes of h = 1/64 that hold levels 1 to 4, and then on
  each of the two finer levels' nodes.  Each level adds the sum of its
  new nodes, by ``math.fsum``, to those before it.
  Where the Toronto integrand's factor t^(m-n) is singular at 0 the
  levels still converge exponentially.  The mass beyond the end nodes,
  within 2.7e-18 of the interval of each endpoint, is bounded and added
  to the tail.  A refusal at h = 1/256 carries the last level's value and
  the last difference as ``err_est``.

Both accept an error of max(tol, 64 ulps of the value): an absolute tol
alone is below one ulp once a value passes about 1e6.  The second
scheme's ``abs_err_est`` is never below those 64 ulps, which cover the
rounding of its integrand values.

Both integrate against the exponentially scaled Bessel function
``ive(n, z) = e^-|z| I_n(z)`` so the integrand never overflows, and the
dropped upper tail of the Nuttall integral is covered by an explicit log
domain majorant that must come in under 0.1 * tol.  Each scheme has its own
Bessel kernel:

* the adaptive scheme calls the ``ive`` of ``scipy.special.cython_special``
  once per node, its ``double`` specialization (the one the fused call
  picks for a float, with plain doubles in and out and no dispatch).  Its
  bits are those of the ``scipy.special.ive`` ufunc, which golden.txt
  freezes.
* the tanh-sinh scheme calls ``_ive_scaled``, numpy alone, on whole node
  arrays: ive(n, a x) / a^n from the ascending series (DLMF 10.25.2) below
  the Bessel argument a x = 40 and the Hankel expansion (DLMF 10.40.1)
  above it, with a and x kept apart.  It is within 32 eps of a 40-digit
  value where scipy's ``ive`` is hundreds of eps off at non-integer order,
  and it does not underflow where a x does (scipy's ``ive(0.5, z)`` is 0
  below z = 1e-305).

So ``import nuttq.oracle`` loads numpy and no scipy module.
``scipy.integrate`` and ``scipy.special.cython_special`` are imported on
the first adaptive value (compare, figure f1, golden --regenerate); a
caller that runs only the second scheme (golden verify, compare --scheme
gauss) loads numpy alone.

Normalized values, Q_{m,n}(a, b) / a^n for the ``nuttall_norm`` kind and
the Marcum Q_m(a, b) = Q_{m,m-1}(a, b) / a^(m-1), come from the same core as
the unnormalized Q_{m,n}, ``_nuttall``, so tol bounds the error of the
value returned on the scale it is returned.  The adaptive scheme
integrates Q within tol * a^n and divides the value, its estimate and its
tail bound by a^n.  The tanh-sinh scheme integrates Q / a^n, whose Bessel
factor is the kernel's, and multiplies by a^n only for the unnormalized Q.
Where a^n falls below the normal range (2^-1022) it has lost digits and
its reciprocal can overflow, so a normalized value is refused with
TermOverflowError in both schemes.

Each oracle function states its integrand once, as ``integrand(exp, ive,
s)``, which returns the node function with Bessel factor ive(n, s x), and
``_integrate`` builds that function for the scheme asked for, so the two
schemes cannot referee different integrands.  QUADPACK gets the function
of ``math.exp``, cython_special's ``ive`` and s itself; tanh-sinh gets the
one of ``numpy.exp``, ``_ive_scaled`` bound to s, and 1 for s.

QUADPACK's error estimate on a panel accepted after one 21-point rule is
an extrapolation from that rule and can fall far short of the true error,
so a result whose every panel stopped there gets a second opinion from the
same panels split at their midpoints (see ``_quad_adaptive``).

The packaged golden file, ``data/golden.txt``, is the one list of golden
cases; each line states a case and its adaptive value at GOLDEN_TOL.
:func:`write_golden` recomputes the file's own entries, so a new case is
a new line in the file, then a regeneration.

Parameters are validated against the supported box by
:func:`nuttq.box.check_box`, the one statement of it; outside the box the
oracle raises :class:`DomainError` instead of returning unvalidated numbers.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _ORACLE_NAMES
from .box import ORACLE_TOL, TOL_MAX, TOL_MIN, check_box
from .errors import DomainError, TermOverflowError, ToleranceNotMetError

__all__ = sorted(_ORACLE_NAMES)

GOLDEN_TOL = 1e-13

# an error below this share of the value may be rounding alone: an oracle
# value is accepted within max(tol, _ROUNDING |value|)
_ROUNDING = 64 * 2.0 ** -52


# The tanh-sinh nodes t = k/256, |k| <= 832, of h = 1/256 (1,665 in all,
# t in [-3.25, 3.25]), as columns (right, d, w) in increasing t.  right is
# t > 0; d is the node's distance from the nearer endpoint as a share of
# the interval, d = 1 / (1 + e^(2|u|)) with u = pi/2 sinh t, formed without
# cancellation; w is its weight pi/2 cosh t / cosh^2 u.  The end nodes
# t = -+3.25 are 2.7e-18 of the interval from each endpoint.
_T = 2.0 ** -8 * np.arange(-832, 833)
_U = 0.5 * math.pi * np.sinh(_T)
_TS_NODES = (_T > 0.0, 1.0 / (1.0 + np.exp(2.0 * np.abs(_U))),
             0.5 * math.pi * np.cosh(_T) / np.cosh(_U) ** 2)
# The levels' new nodes, strided views of that table: level 1 (h = 1/8) is
# [0::32], and level j >= 2 (h = 2^-(j+2)) is [2^(6-j)::2^(7-j)], the nodes
# of odd k at its step, which no coarser level holds.
_TS_LEVELS = [slice(0, None, 32)] + [slice(2 ** (6 - j), None, 2 ** (7 - j))
                                     for j in range(2, 7)]

# The tanh-sinh scheme's Bessel factor switches from the ascending series to
# the Hankel expansion at the Bessel argument z = _SEAM.  At z = 40 the
# series needs 53 terms and the Hankel expansion 18 for 2^-56 relative, at
# every order in [0, 10]; _ive_scaled sums 65 and 33.  Below z = 40 the
# Hankel terms cancel more (their sum is up to 12 times smaller than their
# magnitudes at z = 40, 52 times at z = 25), and above it the series needs
# more terms.
_SEAM = 40.0
_K = np.arange(1.0, 65.0)       # the series' term indices past 0


@functools.lru_cache(maxsize=64)
def _bessel_sums(nu: float) -> np.ndarray:
    """The 3 x 33 coefficient matrix of _ive_scaled at order nu.

    Row 0 holds c_0 .. c_32 of the ascending series (DLMF 10.25.2) as a
    polynomial in z^2, c_k = 2^-nu / (Gamma(nu+1) 4^k k! (nu+1)_k); row 1
    holds c_33 .. c_64 from column 1 on.  Row 2 holds the Hankel expansion
    (DLMF 10.40.1) as a polynomial in 1/z, (-1)^k a_k(nu) / sqrt(2 pi) with
    a_k(nu) = prod_{j<=k} (4 nu^2 - (2j-1)^2) / (8 j).  Cached by order:
    the values of a grid share theirs.
    """
    series = np.cumprod(np.concatenate(
        ([2.0 ** -nu / math.gamma(nu + 1.0)], 0.25 / (_K * (nu + _K)))))
    j = _K[:32]
    hankel = np.cumprod(np.concatenate(
        ([1.0 / math.sqrt(2.0 * math.pi)],
         ((2.0 * j - 1.0) ** 2 - 4.0 * nu * nu) / (8.0 * j))))
    coef = np.stack([series[:33], np.concatenate(([0.0], series[33:])),
                     hankel])
    coef.flags.writeable = False    # every caller of an order shares it
    return coef


def _ive_scaled(nu: float, x, a: float):
    """ive(nu, a x) / a^nu at the nodes x, in nondecreasing order as the
    tanh-sinh levels give them, with a and x kept apart, so an a x that
    underflows loses no digits: for z = a x below _SEAM

        (x/2)^nu / Gamma(nu+1) sum_k (z^2/4)^k / (k! (nu+1)_k) e^-z,

    and above it the Hankel sum over sqrt(2 pi z), divided by a^nu.  Both
    sums are polynomials, in v = z^2 and in v = 1/z: one matrix product of
    _bessel_sums(nu) with the powers 1, v, .. v^32, formed by squaring,
    gives them.

    A node's bits depend on the batch it comes in: the BLAS product sums a
    column of a short matrix otherwise than the same column of a long one.
    So the batches _quad_tanh_sinh calls the integrand on, 417, 416 and
    832 nodes, are part of the second scheme's bits.
    """
    i = int(x.searchsorted(_SEAM / a))
    z = -a * x                      # -z, for e^-z
    powers = np.empty((33, x.size))
    powers[0] = 1.0
    v = powers[1]
    np.square(z[:i], out=v[:i])
    np.divide(-1.0, z[i:], out=v[i:])
    for k in (1, 2, 4, 8, 16):      # v^(k+1) .. v^2k = (v .. v^k) v^k
        np.multiply(powers[1:k + 1], powers[k], out=powers[k + 1:2 * k + 1])
    sums = _bessel_sums(nu) @ powers
    total = sums[2]                 # the Hankel sums; the series' below
    total[:i] = sums[0, :i] + sums[1, :i] * powers[32, :i]
    total[:i] *= np.power(x[:i], nu) * np.exp(z[:i])
    if i < x.size:
        # the oracle's nodes lie below 48, so a > 0.8 here and a^-nu is a
        # normal number
        total[i:] *= np.sqrt(v[i:]) * a ** -nu
    return total


@dataclass(frozen=True)
class OracleValue:
    """A quadrature result with its accounting.

    ``abs_err_est`` already includes ``tail_bound``.  ``subdivisions`` is the
    QUADPACK interval count, or for the second scheme the node count of the
    levels it compared (its levels nest, so that is its final level's node
    count, 52 * 2^(j-1) + 1 at level j).  The second scheme may have
    evaluated the integrand on more nodes than that, up to 417: its first
    call covers levels 1 to 4.
    """

    value: float
    abs_err_est: float
    subdivisions: int
    tail_bound: float


@dataclass(frozen=True)
class GoldenEntry:
    kind: str
    m: float
    n: float
    a_or_r: float
    b_or_big_b: float
    tol: float
    value: float
    err_est: float


def _check(tol: float, scheme: str, m: float, n: float, scale: float,
           limit: float) -> None:
    if not (TOL_MIN <= tol <= TOL_MAX):
        raise DomainError(f"tol={tol} outside supported [{TOL_MIN}, {TOL_MAX}]")
    if scheme not in ("adaptive", "gauss"):
        raise DomainError(f"unknown scheme {scheme!r}, want 'adaptive' or 'gauss'")
    check_box(m, n, scale, limit)


def _quad_adaptive(f, lo: float, hi: float, tol: float, hint: float):
    """The integral of f over [lo, hi] by QUADPACK, split at hint when it
    lies inside (lo, hi) (a hint outside is ignored); value, error
    estimate and subinterval count.  ToleranceNotMetError when the
    estimate exceeds max(tol, _ROUNDING |value|)."""
    # imported here, not at module top, so the second scheme alone (golden
    # verify, compare --scheme gauss) never loads scipy.integrate
    from scipy.integrate import quad

    # epsabs asks for less than the budget because QUADPACK's estimate is
    # conservative and often lands somewhat above the request at tight
    # tolerances; acceptance is against the budget itself
    def run(points):
        res = quad(f, lo, hi, epsabs=0.4 * tol, epsrel=0.0, limit=400,
                   full_output=1, points=points)
        return res[0], res[1], int(res[2]["last"])

    points = [hint] if lo < hint < hi else []
    value, abserr, last = run(points or None)
    if last <= 1 + len(points):
        # Every panel stopped at one Gauss-Kronrod rule, whose estimate can
        # miss by orders of magnitude.  Split each at its midpoint: if the
        # two answers agree within the first estimate, the estimate stands;
        # otherwise take the split answer and charge it the disagreement.
        edges = [lo, *points, hi]
        split, split_err, split_last = run(sorted(
            points + [0.5 * (p + q) for p, q in zip(edges, edges[1:])]))
        gap = abs(value - split)
        if gap > abserr:
            value, abserr, last = split, max(split_err, gap), split_last
    # quad may flag ier != 0 at tight tolerances while abserr is still fine;
    # the estimate is the acceptance gate, not the flag
    limit = max(tol, _ROUNDING * abs(value))
    if abserr > limit:
        raise ToleranceNotMetError(
            f"adaptive quadrature stopped at abserr={abserr:.3e} > {limit:.3e}",
            value=value, err_est=abserr)
    return value, abserr, last


def _quad_tanh_sinh(f_vec, lo: float, hi: float, tol: float):
    """Nested tanh-sinh levels from h = 1/8 to 1/256 until two successive
    levels agree within half of max(tol, _ROUNDING |value|).

    Level j of _TS_LEVELS, at h = 2^-(j+2), adds the weighted sum of its
    new nodes, by math.fsum, to the sums of the levels before it.  f_vec is
    called three times at most, on nodes in increasing order: before level
    1 on the h = 1/64 grid, [0::4] of the table (417 nodes), which holds
    levels 1 to 4, and before levels 5 and 6 on their own nodes (416 and
    832).  Those batches fix the bits of _ive_scaled.  Returns the value,
    max(last difference, _ROUNDING |value|), the node count of the levels
    compared and a bound on the mass beyond the end nodes.  That mass lies
    within 2.7e-18 of the interval of each endpoint, where the oracle's
    integrands are smooth or grow like t^m, m >= 0, so it is at most twice
    the end node's value times its distance from the endpoint.  A refusal
    at h = 1/256 carries the last level's value and the last difference.
    """
    span = hi - lo
    right, d, w = _TS_NODES
    fx = np.empty(d.size)
    sums = []
    nodes = 0
    value = err = None
    for j, level in enumerate(_TS_LEVELS, 1):
        if j == 1 or j > 4:
            cut = slice(0, None, 4) if j == 1 else level
            # span d underflows for a span below 2e-306; no node may then
            # sit at lo, where the Toronto integrand's t^(m-n) can be
            # singular
            fx[cut] = f_vec(np.where(
                right[cut], hi - span * d[cut],
                lo + np.maximum(span * d[cut], math.ulp(0.0))))
        nodes += fx[level].size
        sums.append(math.fsum((w[level] * fx[level]).tolist()))
        prev, value = value, 0.5 * span * 2.0 ** -(j + 2) * math.fsum(sums)
        if prev is not None:
            err = abs(value - prev)
            floor = _ROUNDING * abs(value)
            if err <= 0.5 * max(tol, floor):
                ends = 2.0 * span * float(d[0] * (abs(fx[0]) + abs(fx[-1])))
                return value, max(err, floor), nodes, ends
    raise ToleranceNotMetError(
        f"tanh-sinh levels exhausted at h = 1/256 ({nodes} nodes)",
        value=value, err_est=err)


def _integrate(integrand, lo: float, hi: float, tol: float, hint: float,
               scheme: str, s: float, n: float, scale: float = 1.0,
               tail: float = 0.0) -> OracleValue:
    """The integral over [lo, hi] of the node function integrand(exp, ive,
    s) returns, whose Bessel factor is ive(n, s x), divided by scale.  tol
    and tail, a bound on the dropped part of the domain, are on the scale of
    the integral; the integral is taken within tol - tail, and abs_err_est
    includes tail.

    QUADPACK integrates the node function of math.exp and cython_special's
    ive, split at hint, the integrand's peak, when it lies inside (lo, hi).
    tanh-sinh takes no hint.  It integrates the node function of numpy's
    exp, _ive_scaled bound to s, and 1 in place of s, which is the
    integrand over s^n with no s x formed, within (tol - tail) / s^n.  It
    multiplies that by s^n / scale and adds its bound on the mass beyond
    its end nodes to tail.
    """
    if scheme == "adaptive":
        # imported here, with QUADPACK in _quad_adaptive, so the second
        # scheme alone (golden verify, compare --scheme gauss) loads numpy
        # and no scipy module.  ive["double"] is the specialization the
        # fused call picks for a float argument, without the dispatch.
        from scipy.special.cython_special import ive

        f = integrand(math.exp, ive["double"], s)
        value, err, subdiv = _quad_adaptive(f, lo, hi, tol - tail, hint)
        return OracleValue(value / scale, (err + tail) / scale, subdiv,
                           tail / scale)
    unit = s ** n
    # an s^n that underflows to 0 makes the value 0 at any accuracy
    value, err, nodes, ends = _quad_tanh_sinh(
        integrand(np.exp, functools.partial(_ive_scaled, a=s), 1.0), lo, hi,
        (tol - tail) / unit if unit else math.inf)
    ratio = unit / scale
    tail = tail / scale + ends * ratio
    return OracleValue(value * ratio, err * ratio + tail, nodes, tail)


def _nuttall_tail_log(m: float, a: float, upper: float) -> float:
    # Beyond `upper` the integrand x^m e^(-(x-a)^2/2) ive(n, ax) decays at
    # least like e^(-T(x-upper)/2) once x(x-a) >= 2m, because then
    # d/dx [m ln x - (x-a)^2/2] <= -(x-a)/2 <= -T/2.  Together with
    # ive <= min(1, 2/sqrt(2 pi a x)) that gives the majorant below.
    t = upper - a
    if t * (t + a) < 2.0 * m:
        raise ToleranceNotMetError(
            f"tail majorant invalid at m={m}, a={a}, upper={upper}",
            value=math.nan, err_est=math.inf)
    bessel_cap = min(0.0, math.log(2.0) - 0.5 * math.log(2.0 * math.pi * a * upper))
    return bessel_cap + math.log(2.0 / t) + m * math.log(upper) - 0.5 * t * t


def _nuttall(m: float, n: float, a: float, b: float, tol: float,
             scheme: str, normalized: bool) -> OracleValue:
    """Q_{m,n}(a, b), or with normalized Q_{m,n}(a, b) / a^n, within tol:
    the one place a Nuttall oracle value is scaled (see the module
    docstring)."""
    _check(tol, scheme, m, n, a, b)
    scale = a ** n if normalized else 1.0
    if scale < 2.0 ** -1022:    # the smallest normal double
        raise TermOverflowError("normalized oracle value overflows: a^n "
                                f"underflows to 0 at a={a}, n={n}",
                                log_term=math.inf)
    tol *= scale

    upper = max(b, a + 40.0, a + math.sqrt(2.0 * m) + 8.0)
    log_tail = _nuttall_tail_log(m, a, upper)
    if log_tail > math.log(0.1 * tol):
        raise ToleranceNotMetError(
            f"tail bound exp({log_tail:.2f}) exceeds 0.1*tol", value=math.nan,
            err_est=math.exp(log_tail))

    def integrand(exp, ive, s):
        def f(x):
            return x ** m * exp(-0.5 * (x - a) ** 2) * ive(n, s * x)
        return f

    hint = 0.5 * (a + math.sqrt(a * a + 4.0 * m))   # mode of x^m e^(-(x-a)^2/2)
    return _integrate(integrand, b, upper, tol, hint, scheme, a, n, scale,
                      math.exp(log_tail))


def oracle_nuttall(m: float, n: float, a: float, b: float,
                   tol: float = ORACLE_TOL, scheme: str = "adaptive") -> OracleValue:
    """Unnormalized Q_{m,n}(a, b) by direct quadrature of the definition.

    Integrates x^m e^(-(x^2+a^2)/2) I_n(ax) from b to a finite cutoff chosen
    so the discarded tail is provably below 0.1 * tol.
    """
    return _nuttall(m, n, a, b, tol, scheme, normalized=False)


def oracle_toronto(m: float, n: float, r: float, B: float,
                   tol: float = ORACLE_TOL, scheme: str = "adaptive") -> OracleValue:
    """Incomplete Toronto function T_B(m, n, r) by direct quadrature.

    Integrand 2 r^(n-m+1) t^(m-n) e^(-(t-r)^2) ive(n, 2rt) on [0, B]; the
    interval is finite so there is no tail term.  Where the prefactor
    2 r^(n-m+1) is past the double range (m > n + 1 at a tiny r) it raises
    TermOverflowError carrying the prefactor's log.
    """
    _check(tol, scheme, m, n, r, B)
    if m - n <= -1.0:
        raise DomainError(f"need m - n > -1 for integrability, got {m - n}")
    if B <= 0.0:
        raise DomainError(f"B must be > 0, got {B}")

    # c = 2 r^(n-m+1): ldexp doubles exactly and, like **, raises
    # OverflowError past the double range (a tiny r with m > n + 1)
    try:
        c = math.ldexp(r ** (n - m + 1.0), 1)
    except OverflowError:
        raise TermOverflowError(f"oracle 2 r^(n-m+1) overflows at m={m}, n={n}, r={r}",
                                log_term=math.log(2.0) + (n - m + 1.0) * math.log(r))

    def integrand(exp, ive, s):
        def f(t):
            return c * t ** (m - n) * exp(-((t - r) ** 2)) * ive(n, s * t)
        return f

    return _integrate(integrand, 0.0, B, tol, r, scheme, 2.0 * r, n)


def oracle_marcum(m: float, a: float, b: float,
                  tol: float = ORACLE_TOL, scheme: str = "adaptive") -> OracleValue:
    """Generalized Marcum Q_m(a, b) = Q_{m,m-1}(a, b) / a^(m-1), the
    normalized Nuttall value at n = m - 1, within tol of itself."""
    if m < 1.0:
        raise DomainError(f"Marcum order must be >= 1, got m={m}")
    return _nuttall(m, m - 1.0, a, b, tol, scheme, normalized=True)


def golden_path() -> Path:
    return Path(__file__).parent / "data" / "golden.txt"


def _fmt(x: float) -> str:
    return format(x, ".17g")


def _evaluate_case(kind: str, m: float, n: float, p3: float, p4: float,
                   tol: float, scheme: str = "adaptive") -> OracleValue:
    if kind in ("nuttall", "nuttall_norm"):
        return _nuttall(m, n, p3, p4, tol, scheme, kind == "nuttall_norm")
    if kind == "toronto":
        return oracle_toronto(m, n, p3, p4, tol=tol, scheme=scheme)
    if kind == "marcum":
        return oracle_marcum(m, p3, p4, tol=tol, scheme=scheme)
    raise DomainError(f"unknown golden kind {kind!r}")


def _golden_file(action: str, path: Path, call):
    """call(), with a failure to read or write the golden file at path
    turned into a DomainError naming the action, the path and the reason."""
    try:
        return call()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or type(exc).__name__
        raise DomainError(f"cannot {action} golden file {str(path)!r}: "
                          f"{reason}") from None


def write_golden(path: Path | str | None = None) -> Path:
    """Recompute the packaged golden file's entries and write them to path.

    The packaged file, :func:`golden_path`, is the one list of golden cases
    (a marcum entry carries n = m - 1): each entry's kind and parameters
    are read from it and its value and error estimate recomputed with the
    adaptive scheme at GOLDEN_TOL.  The output is deterministic (the
    file's cases, a fixed tolerance, "%.17g" formatting, no timestamps),
    so regeneration is expected to be bit-identical to the packaged file.
    The packaged file is read, then the directory made, before any value
    is computed; DomainError if the one cannot be read or the other or the
    file cannot be written.
    """
    entries = read_golden()
    path = Path(path) if path is not None else golden_path()
    _golden_file("write", path,
                 lambda: path.parent.mkdir(parents=True, exist_ok=True))
    lines = [
        "# nuttq golden reference values",
        "# columns: kind m n a_or_r b_or_B tol value err_est",
        f"# {len(entries)} cases, adaptive scheme, tol={_fmt(GOLDEN_TOL)}",
    ]
    for e in entries:
        case = (e.m, e.n, e.a_or_r, e.b_or_big_b)
        ov = _evaluate_case(e.kind, *case, GOLDEN_TOL)
        lines.append(" ".join([e.kind, *map(_fmt, case), _fmt(GOLDEN_TOL),
                               _fmt(ov.value), _fmt(ov.abs_err_est)]))
    _golden_file("write", path, lambda: path.write_text("\n".join(lines) + "\n"))
    return path


def read_golden(path: Path | str | None = None) -> list[GoldenEntry]:
    """The entries of a golden file; DomainError if it cannot be read, holds
    a malformed line, or holds no entries."""
    path = Path(path) if path is not None else golden_path()
    text = _golden_file("read", path, path.read_text)
    entries = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            kind, *nums = line.split()
            m, n, p3, p4, tol, value, err = (float(v) for v in nums)
        except ValueError:
            raise DomainError(f"malformed golden line {line!r}") from None
        entries.append(GoldenEntry(kind, m, n, p3, p4, tol, value, err))
    if not entries:
        raise DomainError(f"golden file {str(path)!r} holds no entries")
    return entries
