"""Independent quadrature oracle for the Nuttall and Toronto integrals.

The series evaluators in :mod:`nuttq.nuttall` and :mod:`nuttq.toronto` are
hand-written on top of the stdlib.  This module computes the same quantities
straight from their integral definitions using scipy's QUADPACK plus a second,
structurally different composite Gauss-Legendre scheme, so any bug has to be
reproduced independently three times before it can hide.

Two schemes:

* ``adaptive``: ``scipy.integrate.quad`` with an absolute tolerance budget;
  the reported error estimate plus the tail bound must fit inside ``tol`` or
  the call raises instead of returning.
* ``gauss``: composite 16-point Gauss-Legendre with strip doubling until two
  successive refinements agree.

Both integrate against the exponentially scaled Bessel function
``ive(n, z) = e^-|z| I_n(z)`` so the integrand never overflows, and the
dropped upper tail of the Nuttall integral is covered by an explicit log
domain majorant that must come in under 0.1 * tol.

Parameters are validated against a supported box; outside it the oracle
raises :class:`DomainError` instead of returning unvalidated numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.integrate import quad
from scipy.special import ive

from .box import LIMIT_MAX, ORDER_MAX, SCALE_MAX
from .errors import DomainError, ToleranceNotMetError

__all__ = [
    "OracleValue",
    "GoldenEntry",
    "GOLDEN_CASES",
    "GOLDEN_TOL",
    "oracle_nuttall",
    "oracle_toronto",
    "oracle_marcum",
    "golden_path",
    "read_golden",
    "write_golden",
]

TOL_MIN = 1e-14
TOL_MAX = 1e-6

GOLDEN_TOL = 1e-13

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


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


def _check_tol(tol: float) -> None:
    if not (TOL_MIN <= tol <= TOL_MAX):
        raise DomainError(f"tol={tol} outside supported [{TOL_MIN}, {TOL_MAX}]")


def _check_scheme(scheme: str) -> None:
    if scheme not in ("adaptive", "gauss"):
        raise DomainError(f"unknown scheme {scheme!r}, want 'adaptive' or 'gauss'")


def _quad_adaptive(f, lo: float, hi: float, tol: float, hint=None):
    # epsabs asks for less than the budget because QUADPACK's estimate is
    # conservative and often lands somewhat above the request at tight
    # tolerances; acceptance is against the budget itself
    points = [hint] if hint is not None and lo < hint < hi else None
    res = quad(f, lo, hi, epsabs=0.4 * tol, epsrel=0.0, limit=400,
               full_output=1, points=points)
    value, abserr, info = res[0], res[1], res[2]
    # quad may flag ier != 0 at tight tolerances while abserr is still fine;
    # the estimate is the acceptance gate, not the flag
    if abserr > tol:
        raise ToleranceNotMetError(
            f"adaptive quadrature stopped at abserr={abserr:.3e} > {tol:.3e}",
            value=value, err_est=abserr)
    return value, abserr, int(info["last"])


def _quad_gauss(f_vec, lo: float, hi: float, tol: float, max_strips: int = 8192):
    prev = None
    strips = 16
    while strips <= max_strips:
        edges = np.linspace(lo, hi, strips + 1)
        half = 0.5 * (edges[1] - edges[0])
        mids = 0.5 * (edges[:-1] + edges[1:])
        x = (mids[:, None] + half * _GL_NODES[None, :]).ravel()
        value = float(half * np.sum(f_vec(x).reshape(strips, 16) @ _GL_WEIGHTS))
        if prev is not None:
            err = abs(value - prev)
            if err <= 0.5 * tol:
                return value, err, strips
        prev = value
        strips *= 2
    raise ToleranceNotMetError(
        f"Gauss-Legendre refinement exhausted {max_strips} strips",
        value=prev, err_est=math.inf)


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
                   tol: float = 1e-10, scheme: str = "adaptive") -> OracleValue:
    """Unnormalized Q_{m,n}(a, b) by direct quadrature of the definition.

    Integrates x^m e^(-(x^2+a^2)/2) I_n(ax) from b to a finite cutoff chosen
    so the discarded tail is provably below 0.1 * tol.
    """
    _check_tol(tol)
    _check_scheme(scheme)
    if not (0.0 <= m <= ORDER_MAX and 0.0 <= n <= ORDER_MAX):
        raise DomainError(f"orders m={m}, n={n} outside [0, {ORDER_MAX}]")
    if not (0.0 < a <= SCALE_MAX):
        raise DomainError(f"a={a} outside (0, {SCALE_MAX}]")
    if not (0.0 <= b <= LIMIT_MAX):
        raise DomainError(f"b={b} outside [0, {LIMIT_MAX}]")

    upper = max(b, a + 40.0, a + math.sqrt(2.0 * m) + 8.0)
    log_tail = _nuttall_tail_log(m, a, upper)
    if log_tail > math.log(0.1 * tol):
        raise ToleranceNotMetError(
            f"tail bound exp({log_tail:.2f}) exceeds 0.1*tol", value=math.nan,
            err_est=math.exp(log_tail))
    tail = math.exp(log_tail)
    budget = tol - tail

    def f_scalar(x: float) -> float:
        return x ** m * math.exp(-0.5 * (x - a) ** 2) * ive(n, a * x)

    def f_vec(x: np.ndarray) -> np.ndarray:
        return x ** m * np.exp(-0.5 * (x - a) ** 2) * ive(n, a * x)

    hint = 0.5 * (a + math.sqrt(a * a + 4.0 * m))   # mode of x^m e^(-(x-a)^2/2)
    if scheme == "adaptive":
        value, err, subdiv = _quad_adaptive(f_scalar, b, upper, budget, hint=hint)
    else:
        value, err, subdiv = _quad_gauss(f_vec, b, upper, budget)
    return OracleValue(value=value, abs_err_est=err + tail,
                       subdivisions=subdiv, tail_bound=tail)


def oracle_toronto(m: float, n: float, r: float, B: float,
                   tol: float = 1e-10, scheme: str = "adaptive") -> OracleValue:
    """Incomplete Toronto function T_B(m, n, r) by direct quadrature.

    Integrand 2 r^(n-m+1) t^(m-n) e^(-(t-r)^2) ive(n, 2rt) on [0, B]; the
    interval is finite so there is no tail term.
    """
    _check_tol(tol)
    _check_scheme(scheme)
    if not (0.0 <= m <= ORDER_MAX and 0.0 <= n <= ORDER_MAX):
        raise DomainError(f"orders m={m}, n={n} outside [0, {ORDER_MAX}]")
    if m - n <= -1.0:
        raise DomainError(f"need m - n > -1 for integrability, got {m - n}")
    if not (0.0 < r <= SCALE_MAX):
        raise DomainError(f"r={r} outside (0, {SCALE_MAX}]")
    if not (0.0 < B <= LIMIT_MAX):
        raise DomainError(f"B={B} outside (0, {LIMIT_MAX}]")

    c = 2.0 * r ** (n - m + 1.0)

    def f_scalar(t: float) -> float:
        return c * t ** (m - n) * math.exp(-((t - r) ** 2)) * ive(n, 2.0 * r * t)

    def f_vec(t: np.ndarray) -> np.ndarray:
        return c * t ** (m - n) * np.exp(-((t - r) ** 2)) * ive(n, 2.0 * r * t)

    hint = r if r < B else None
    if scheme == "adaptive":
        value, err, subdiv = _quad_adaptive(f_scalar, 0.0, B, tol, hint=hint)
    else:
        value, err, subdiv = _quad_gauss(f_vec, 0.0, B, tol)
    return OracleValue(value=value, abs_err_est=err, subdivisions=subdiv,
                       tail_bound=0.0)


def oracle_marcum(m: float, a: float, b: float,
                  tol: float = 1e-10, scheme: str = "adaptive") -> OracleValue:
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


def write_golden(path: Path | str | None = None) -> Path:
    """Recompute every golden case with the adaptive scheme and write the file.

    The output is deterministic (fixed cases, fixed tolerance, "%.17g"
    formatting, no timestamps), so regeneration is expected to be
    bit-identical to the committed file.
    """
    path = Path(path) if path is not None else golden_path()
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
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")
    return path


def read_golden(path: Path | str | None = None) -> list[GoldenEntry]:
    path = Path(path) if path is not None else golden_path()
    entries = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        kind, *nums = line.split()
        m, n, p3, p4, tol, value, err = (float(v) for v in nums)
        entries.append(GoldenEntry(kind, m, n, p3, p4, tol, value, err))
    return entries
