"""Independent quadrature oracle for the Nuttall and Toronto integrals.

The series evaluators in :mod:`nuttq.nuttall` and :mod:`nuttq.toronto` are
hand-written on top of the stdlib.  This module computes the same quantities
straight from their integral definitions using scipy's QUADPACK plus a second,
structurally different composite Gauss-Legendre scheme, so any bug has to be
reproduced independently three times before it can hide.

Two schemes:

* ``adaptive``: ``scipy.integrate.quad`` with an absolute tolerance budget;
  the reported error estimate plus the tail bound must fit inside ``tol`` or
  the call raises instead of returning.  ``scipy.integrate`` is imported
  on the first adaptive value, not with this module, so a caller that
  runs only the Gauss scheme (``nuttq golden``, ``compare --scheme
  gauss``) loads numpy and ``scipy.special`` alone.
* ``gauss``: composite 16-point Gauss-Legendre with strip doubling, from
  16 to at most 8,192 strips, until two successive levels agree within
  tol / 2.  The strip geometry is exact: the half-width comes from the
  whole interval, and each node from lo, so the strips cover [lo, hi] to a
  few ulps at any count; the strip sums are added by ``math.fsum``.  The
  refinement also stops when it cannot converge: once two steady
  contraction ratios below 1 (an endpoint singularity makes the levels
  converge only algebraically) project that even the finest level would
  miss tol / 2, and when the strips run out.  Both refusals carry the last
  level's value and the last difference as ``err_est``.

Both integrate against the exponentially scaled Bessel function
``ive(n, z) = e^-|z| I_n(z)`` so the integrand never overflows, and the
dropped upper tail of the Nuttall integral is covered by an explicit log
domain majorant that must come in under 0.1 * tol.

Each oracle function states its integrand once, as ``f(x, exp, ive)``, and
``_integrate`` hands it to the scheme asked for, so the two schemes cannot
referee different integrands.  The adaptive scheme calls it once per node
with a Python float and its defaults, ``math.exp`` and the ``ive`` of
``scipy.special.cython_special``: the same kernel as the
``scipy.special.ive`` ufunc, with plain doubles in and out instead of a
ufunc dispatch per call.  The Gauss scheme calls it on whole node arrays
with ``numpy.exp`` and the ufunc.

QUADPACK's error estimate on a single accepted panel is an extrapolation
from one 21-point rule and can fall far short of the true error, so a
one-panel result gets a second opinion from the same interval split at its
midpoint (see ``_quad_adaptive``).

Parameters are validated against the supported box by
:func:`nuttq.box.check_box`, the one statement of it; outside the box the
oracle raises :class:`DomainError` instead of returning unvalidated numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import ive
from scipy.special.cython_special import ive as ive_scalar

from . import _ORACLE_NAMES
from .box import ORACLE_TOL, TOL_MAX, TOL_MIN, check_box
from .errors import DomainError, ToleranceNotMetError

__all__ = sorted(_ORACLE_NAMES)

GOLDEN_TOL = 1e-13

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_GL_OFFSETS = 1.0 + _GL_NODES   # node j of strip k at lo + half (2k + offset j)
_GL_MAX_STRIPS = 8192
# a level difference below this share of the value may be rounding alone,
# so it says nothing about the rate of convergence
_GL_ROUNDING = 64 * 2.0 ** -52


@dataclass(frozen=True)
class OracleValue:
    """A quadrature result with its accounting.

    ``abs_err_est`` already includes ``tail_bound``.  ``subdivisions`` is the
    QUADPACK interval count or the final Gauss-Legendre strip count.
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


def _quad_adaptive(f, lo: float, hi: float, tol: float, hint: float | None):
    # imported here, not at module top, so the Gauss scheme alone (golden
    # verify, compare --scheme gauss) never loads scipy.integrate
    from scipy.integrate import quad

    # epsabs asks for less than the budget because QUADPACK's estimate is
    # conservative and often lands somewhat above the request at tight
    # tolerances; acceptance is against the budget itself
    def run(points):
        res = quad(f, lo, hi, epsabs=0.4 * tol, epsrel=0.0, limit=400,
                   full_output=1, points=points)
        return res[0], res[1], int(res[2]["last"])

    value, abserr, last = run(
        [hint] if hint is not None and lo < hint < hi else None)
    if last == 1:
        # One panel means one Gauss-Kronrod rule, whose estimate can miss
        # by orders of magnitude.  Split it at the midpoint: if the two
        # answers agree within the first estimate, the estimate stands;
        # otherwise take the split answer and charge it the disagreement.
        split, split_err, split_last = run([0.5 * (lo + hi)])
        gap = abs(value - split)
        if gap > abserr:
            value, abserr, last = split, max(split_err, gap), split_last
    # quad may flag ier != 0 at tight tolerances while abserr is still fine;
    # the estimate is the acceptance gate, not the flag
    if abserr > tol:
        raise ToleranceNotMetError(
            f"adaptive quadrature stopped at abserr={abserr:.3e} > {tol:.3e}",
            value=value, err_est=abserr)
    return value, abserr, last


def _gauss_level(f_vec, lo: float, hi: float, strips: int) -> float:
    """The composite 16-point Gauss-Legendre sum of f_vec over [lo, hi]
    on `strips` equal strips.

    The half-width comes from the whole interval, and node j of strip k
    sits at lo + half (2k + 1 + xi_j), so the strips cover hi - lo to a few
    ulps at any count.  A half-width taken from the first strip of a
    linspace grid is off by about eps |lo| / half, an error that grows
    with the strip count.  The strip sums are added by math.fsum, so two
    levels that have both converged differ by the rounding of their
    integrand values, not by that of a long floating-point sum as well.
    """
    half = 0.5 * (hi - lo) / strips
    x = lo + half * (2.0 * np.arange(strips)[:, None] + _GL_OFFSETS)
    return half * math.fsum((f_vec(x.ravel()).reshape(strips, 16)
                             @ _GL_WEIGHTS).tolist())


def _quad_gauss(f_vec, lo: float, hi: float, tol: float):
    """Strip doubling from 16 strips until two successive levels agree
    within tol / 2.

    Where the integrand has an endpoint singularity the levels converge
    only algebraically, each difference a steady ratio q of the one
    before.  Once the last two ratios are below 1 and within 25% of each
    other, and the last difference is above what rounding alone can give
    (_GL_ROUNDING of the value), the last difference times the smaller q
    to the power of the doublings left projects where the finest level
    would land.  If that is still above tol / 2, the refinement stops at
    once.  That refusal and the one at _GL_MAX_STRIPS both carry the last
    level's value and the last difference.
    """
    prev = None
    diffs = []
    strips = 16
    while strips <= _GL_MAX_STRIPS:
        value = _gauss_level(f_vec, lo, hi, strips)
        if prev is not None:
            err = abs(value - prev)
            if err <= 0.5 * tol:
                return value, err, strips
            diffs.append(err)
            if len(diffs) >= 3:
                q1, q2 = diffs[-2] / diffs[-3], diffs[-1] / diffs[-2]
                left = (_GL_MAX_STRIPS // strips).bit_length() - 1
                if (max(q1, q2) < 1.0 and max(q1, q2) <= 1.25 * min(q1, q2)
                        and err > _GL_ROUNDING * abs(value)
                        and err * min(q1, q2) ** left > 0.5 * tol):
                    raise ToleranceNotMetError(
                        f"Gauss-Legendre refinement converges by a ratio "
                        f"{q2:.3g} a doubling and cannot meet {tol:.3e} "
                        f"within {_GL_MAX_STRIPS} strips",
                        value=value, err_est=err)
        prev = value
        strips *= 2
    raise ToleranceNotMetError(
        f"Gauss-Legendre refinement exhausted {_GL_MAX_STRIPS} strips",
        value=prev, err_est=diffs[-1])


def _integrate(f, lo: float, hi: float, tol: float, hint: float | None,
               scheme: str, tail: float = 0.0) -> OracleValue:
    """The integral of f over [lo, hi] by scheme, within tol less the bound
    tail on the dropped part of the domain, which abs_err_est includes.

    QUADPACK calls f(x) with its scalar defaults; Gauss-Legendre calls it
    on node arrays with numpy's exp and the ive ufunc.
    """
    if scheme == "adaptive":
        value, err, subdiv = _quad_adaptive(f, lo, hi, tol - tail, hint)
    else:
        value, err, subdiv = _quad_gauss(lambda x: f(x, np.exp, ive), lo, hi,
                                         tol - tail)
    return OracleValue(value=value, abs_err_est=err + tail,
                       subdivisions=subdiv, tail_bound=tail)


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


def oracle_nuttall(m: float, n: float, a: float, b: float,
                   tol: float = ORACLE_TOL, scheme: str = "adaptive") -> OracleValue:
    """Unnormalized Q_{m,n}(a, b) by direct quadrature of the definition.

    Integrates x^m e^(-(x^2+a^2)/2) I_n(ax) from b to a finite cutoff chosen
    so the discarded tail is provably below 0.1 * tol.
    """
    _check(tol, scheme, m, n, a, b)

    upper = max(b, a + 40.0, a + math.sqrt(2.0 * m) + 8.0)
    log_tail = _nuttall_tail_log(m, a, upper)
    if log_tail > math.log(0.1 * tol):
        raise ToleranceNotMetError(
            f"tail bound exp({log_tail:.2f}) exceeds 0.1*tol", value=math.nan,
            err_est=math.exp(log_tail))

    def f(x, exp=math.exp, ive=ive_scalar):
        return x ** m * exp(-0.5 * (x - a) ** 2) * ive(n, a * x)

    hint = 0.5 * (a + math.sqrt(a * a + 4.0 * m))   # mode of x^m e^(-(x-a)^2/2)
    return _integrate(f, b, upper, tol, hint, scheme, math.exp(log_tail))


def oracle_toronto(m: float, n: float, r: float, B: float,
                   tol: float = ORACLE_TOL, scheme: str = "adaptive") -> OracleValue:
    """Incomplete Toronto function T_B(m, n, r) by direct quadrature.

    Integrand 2 r^(n-m+1) t^(m-n) e^(-(t-r)^2) ive(n, 2rt) on [0, B]; the
    interval is finite so there is no tail term.
    """
    _check(tol, scheme, m, n, r, B)
    if m - n <= -1.0:
        raise DomainError(f"need m - n > -1 for integrability, got {m - n}")
    if B <= 0.0:
        raise DomainError(f"B must be > 0, got {B}")

    c = 2.0 * r ** (n - m + 1.0)

    def f(t, exp=math.exp, ive=ive_scalar):
        return c * t ** (m - n) * exp(-((t - r) ** 2)) * ive(n, 2.0 * r * t)

    return _integrate(f, 0.0, B, tol, r if r < B else None, scheme)


def oracle_marcum(m: float, a: float, b: float,
                  tol: float = ORACLE_TOL, scheme: str = "adaptive") -> OracleValue:
    """Generalized Marcum Q_m(a, b) via a^(1-m) Q_{m,m-1}(a, b).

    The inner absolute tolerance is rescaled by a^(m-1) so the rescaled value
    still meets ``tol``, then clamped into the oracle's supported range.
    """
    if m < 1.0:
        raise DomainError(f"Marcum order must be >= 1, got m={m}")
    inner_tol = min(max(tol * a ** (m - 1.0), TOL_MIN), TOL_MAX)
    inner = oracle_nuttall(m, m - 1.0, a, b, tol=inner_tol, scheme=scheme)
    scale = a ** (1.0 - m)
    return OracleValue(value=scale * inner.value,
                       abs_err_est=scale * inner.abs_err_est,
                       subdivisions=inner.subdivisions,
                       tail_bound=scale * inner.tail_bound)


# Reference cases frozen into data/golden.txt.  Marcum rows carry n = m - 1.
GOLDEN_CASES = [
    ("nuttall", 1.0, 0.0, 1.0, 1.0),
    ("nuttall", 1.0, 0.0, 0.5, 3.0),
    ("nuttall", 2.0, 1.0, 1.0, 2.0),
    ("nuttall", 2.0, 1.0, 3.0, 0.5),
    ("nuttall", 3.0, 0.5, 2.0, 1.0),
    ("nuttall", 3.0, 0.5, 0.5, 2.0),
    ("nuttall", 1.5, 0.5, 1.0, 1.0),
    ("nuttall", 1.5, 0.5, 2.0, 3.0),
    ("nuttall", 2.5, 1.5, 2.0, 0.5),
    ("nuttall", 2.5, 1.5, 3.0, 3.0),
    ("nuttall", 2.0, 1.0, 1.0, 0.0),
    ("nuttall", 3.0, 0.5, 1.0, 8.0),
    ("toronto", 2.0, 1.0, 1.0, 3.0),
    ("toronto", 2.0, 1.0, 2.0, 1.0),
    ("toronto", 3.0, 1.5, 0.8, 2.0),
    ("toronto", 3.0, 1.5, 0.5, 1.0),
    ("toronto", 2.0, 0.5, 1.0, 2.0),
    ("toronto", 2.0, 0.5, 2.0, 0.5),
    ("toronto", 4.0, 1.0, 2.0, 3.0),
    ("toronto", 4.0, 1.0, 0.5, 1.0),
    ("toronto", 1.0, 0.0, 1.0, 2.0),
    ("toronto", 1.0, 0.5, 0.3, 2.0),
    ("toronto", 2.0, 1.0, 0.8, 8.0),
    ("toronto", 3.0, 1.5, 1.0, 8.0),
    ("marcum", 1.0, 0.0, 1.0, 1.0),
    ("marcum", 2.0, 1.0, 1.0, 1.0),
    ("marcum", 1.0, 0.0, 0.5, 2.0),
    ("marcum", 3.0, 2.0, 2.0, 1.0),
    ("marcum", 1.5, 0.5, 1.0, 1.0),
    ("marcum", 2.0, 1.0, 2.0, 0.0),
]


def golden_path() -> Path:
    return Path(__file__).parent / "data" / "golden.txt"


def _fmt(x: float) -> str:
    return format(x, ".17g")


def _evaluate_case(kind: str, m: float, n: float, p3: float, p4: float,
                   tol: float, scheme: str = "adaptive") -> OracleValue:
    if kind == "nuttall":
        return oracle_nuttall(m, n, p3, p4, tol=tol, scheme=scheme)
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
    """Recompute every golden case with the adaptive scheme and write the file.

    The output is deterministic (fixed cases, fixed tolerance, "%.17g"
    formatting, no timestamps), so regeneration is expected to be
    bit-identical to the committed file.  The directory is made before any
    value is computed; DomainError if it or the file cannot be written.
    """
    path = Path(path) if path is not None else golden_path()
    _golden_file("write", path,
                 lambda: path.parent.mkdir(parents=True, exist_ok=True))
    lines = [
        "# nuttq golden reference values",
        "# columns: kind m n a_or_r b_or_B tol value err_est",
        f"# {len(GOLDEN_CASES)} cases, adaptive scheme, tol={_fmt(GOLDEN_TOL)}",
    ]
    for kind, m, n, p3, p4 in GOLDEN_CASES:
        ov = _evaluate_case(kind, m, n, p3, p4, GOLDEN_TOL)
        lines.append(" ".join([kind, _fmt(m), _fmt(n), _fmt(p3), _fmt(p4),
                               _fmt(GOLDEN_TOL), _fmt(ov.value),
                               _fmt(ov.abs_err_est)]))
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
