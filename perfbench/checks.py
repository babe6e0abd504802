"""Output checks: which ops failed, and why.

An op fails when any of its parts raised, or emitted a value outside the
accuracy that call promises:

* adaptive series values: relative error <= SERIES_TOL_MULT * tol;
* oracle values: absolute error <= the returned abs_err_est plus
  ORACLE_ROUNDOFF_ULPS of the value: the Gauss scheme estimates its error
  from two refinements, which can agree to the last bit (estimate 0) while
  both carry a few ulps of rounding;
* the closed form implied by a truncation-bound report
  (bound_value + truncated value): relative error <= CLOSED_RTOL;
* the adaptive sum implied by that report (dominated_quantity + truncated
  value, summed at tol 1e-14): relative error <= SERIES_TOL_MULT * 1e-14;
* 1F1 bounds: relative error <= BOUND_1F1_RTOL against the 40-digit formula
  where referenced, and no smaller than the function value elsewhere;
* truncated sums promise no accuracy, only 0 <= value <= limit.

A DomainError that the called function's documented domain predicts is not
applicable, not a failure.  Values are checked against the 40-digit mpmath
reference on the referenced ops.  On the other crosscheck ops the function
value is the adaptive sum the truncation report implies (or the library's
adaptive series at tol 1e-14 where there is no report), with that series'
promised error added to the allowance; it is refereed by the oracle, a
separate numerical route, and the closed form by the adaptive series at the
rounded orders.

Three failure classes are known defects of the package: an op whose every
failure is one of them is counted apart, in ``known_defect``, not in
``failed``, and leaves the run ``correct``, each only within a stated limit:

* ``refused:oracle_tolerance``: the oracle raised ToleranceNotMetError
  (in-process, or behind a CLI exit code 3);
* ``miss:oracle_estimate``: an oracle value misses its allowance by at most
  ORACLE_EXCUSE times that allowance;
* ``miss:closed_form_cancellation``: a closed-form value misses by no more
  than CANCEL_ULPS ulps of the sum of the absolute values of the terms the
  closed form adds up, i.e. by what its cancellation explains.

Any other miss or raise (``miss:oracle`` and ``miss:closed_form`` beyond
those limits included) counts the op in ``failed`` and makes the run
incorrect.  The share of ops that failed either way is the report's
``failed_frac``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

SERIES_TOL_MULT = 10.0
REPORT_TOL = 1e-14
CLOSED_RTOL = 1e-8
BOUND_1F1_RTOL = 1e-12
ORACLE_ROUNDOFF_ULPS = 64
ORACLE_EXCUSE = 100.0
CANCEL_ULPS = 64.0
EPS = 2.0 ** -52

KNOWN_DEFECTS = frozenset({"refused:oracle_tolerance", "miss:oracle_estimate",
                           "miss:closed_form_cancellation"})


def ceil_half(x: float) -> float:
    return math.ceil(x - 0.5) + 0.5


def floor_half(x: float) -> float:
    return math.floor(x + 0.5) - 0.5


def rounded_orders(fn: str, m: float, n: float) -> tuple[float, float]:
    """Orders at which a truncation-bound report evaluates its closed form."""
    if fn == "toronto":
        return float(math.ceil(m)), floor_half(n)
    return ceil_half(m), ceil_half(n)


def _params_ok(fn: str, m: float, n: float, p3: float, p4: float) -> bool:
    if fn == "toronto":   # TorontoParams
        return n >= 0.0 and m - n > -1.0 and p3 > 0.0 and p4 > 0.0
    if fn == "marcum" and not m >= 1.0:
        return False
    return m >= 0.0 and n >= 0.0 and p3 > 0.0 and p4 >= 0.0   # NuttallParams


def domain_predicted(part: str, fn: str, m: float, n: float, p3: float,
                     p4: float) -> bool:
    """True when the documented domain of the call behind `part` excludes
    these arguments, so a DomainError there is the promised behaviour."""
    if not _params_ok(fn, m, n, p3, p4):
        return True
    if part == "oracle":
        return not (0.0 <= m <= 10.0 and 0.0 <= n <= 10.0 and 0.0 < p3 <= 6.0
                    and (0.0 < p4 if fn == "toronto" else 0.0 <= p4) and p4 <= 8.0)
    if part == "bound_1f1":
        return fn != "toronto" and not m > 0.0
    if part == "report":
        mc, nc = rounded_orders(fn, m, n)
        if fn == "toronto":
            # closed form needs integer m >= 1 and half-odd n with m >= 2n
            return nc < 0.5 or mc < 1.0 or mc < 2.0 * nc
        return mc < nc
    return False


@dataclass
class Verdicts:
    """Per-run tally of the checks."""

    attempted: int = 0
    failed: int = 0                  # ops with a failure outside the known defects
    known_defect: int = 0            # ops whose every failure is a known defect
    not_applicable: int = 0          # parts refused as documented
    referenced: int = 0              # ops checked against the mpmath reference
    classes: Counter = field(default_factory=Counter)   # failure class -> ops
    max_rel_err: float = 0.0         # over referenced relative-promise values
    max_oracle_miss_ratio: float = 0.0   # worst oracle miss / its allowance
    max_cancel_ratio: float = 0.0  # worst closed-form miss / what cancellation explains
    unexpected: list = field(default_factory=list)     # first few, for the log

    def record(self, reasons: set[str], detail: str) -> None:
        self.attempted += 1
        if not reasons:
            return
        self.classes.update(reasons)
        if reasons <= KNOWN_DEFECTS:
            self.known_defect += 1
            return
        self.failed += 1
        if len(self.unexpected) < 10:
            self.unexpected.append(f"{sorted(reasons)} {detail}")

    @property
    def correct(self) -> bool:
        return self.failed == 0


def _raised(part) -> str | None:
    return part[1] if isinstance(part, list) and part and part[0] == "!" else None


def _miss(value: float, ref: float, rtol: float, atol: float = 0.0) -> bool:
    return not abs(value - ref) <= rtol * abs(ref) + atol


class OpChecker:
    """Checks one op's parts; accumulates into a Verdicts."""

    def __init__(self, verdicts: Verdicts):
        self.v = verdicts

    def _rel(self, value: float, ref: float, referenced: bool) -> None:
        if referenced and ref != 0.0 and math.isfinite(value):
            self.v.max_rel_err = max(self.v.max_rel_err, abs(value - ref) / abs(ref))

    def _error(self, reasons: set, part_name: str, exc: str, op) -> None:
        fn, m, n, p3, p4 = op[:5]
        if exc == "DomainError" and domain_predicted(part_name, fn, m, n, p3, p4):
            self.v.not_applicable += 1
        elif part_name == "oracle" and exc == "ToleranceNotMetError":
            reasons.add("refused:oracle_tolerance")
        else:
            reasons.add(f"raise:{exc}")

    def series_box(self, op, parts, ref: float | None) -> None:
        reasons: set[str] = set()
        (part,) = parts
        exc = _raised(part)
        if exc:
            self._error(reasons, "series", exc, op)
        else:
            value, _terms = part
            tol = op[5]
            if not (math.isfinite(value) and value >= 0.0):
                reasons.add("miss:series")
            elif ref is not None:
                self._rel(value, ref, True)
                if _miss(value, ref, SERIES_TOL_MULT * tol):
                    reasons.add("miss:series")
        self.v.referenced += ref is not None
        self.v.record(reasons, repr(op))

    def crosscheck(self, op, parts, value_ref: float, closed_ref: float | None,
                   bound_ref: float | None, referenced: bool) -> None:
        """value_ref: normalized function value; closed_ref: normalized value
        at the rounded orders (None when the report is not applicable);
        bound_ref: the 1F1 formula (None off the referenced subset).
        Without `referenced`, value_ref is the report's own adaptive sum or
        the library's adaptive series, so the oracle referees it."""
        fn, m, n, p3, p4, _scheme = op
        reasons: set[str] = set()
        # allowance for a reference that is itself the 1e-14 library series
        ref_rtol = 0.0 if referenced else SERIES_TOL_MULT * REPORT_TOL
        trunc, orc, bound, report = parts

        t = None
        if _raised(trunc):
            self._error(reasons, "series", _raised(trunc), op)
        else:
            t = trunc[0]
            if not (0.0 <= t <= value_ref * (1.0 + 1e-12 + ref_rtol)):
                reasons.add("miss:truncated")

        if _raised(orc):
            self._error(reasons, "oracle", _raised(orc), op)
        else:
            value, err_est, _subdiv = orc
            scale = p3 ** n if fn in ("nuttall", "nuttall_norm") else 1.0
            ref = value_ref * scale
            allowance = (ref_rtol + ORACLE_ROUNDOFF_ULPS * EPS) * abs(ref) + err_est
            ratio = abs(value - ref) / allowance if allowance > 0.0 else math.inf
            if not ratio <= 1.0:
                self.v.max_oracle_miss_ratio = max(self.v.max_oracle_miss_ratio, ratio)
                reasons.add("miss:oracle_estimate" if ratio <= ORACLE_EXCUSE
                            else "miss:oracle")

        if _raised(bound):
            self._error(reasons, "bound_1f1", _raised(bound), op)
        elif bound_ref is not None:
            self._rel(bound[0], bound_ref, True)
            if _miss(bound[0], bound_ref, BOUND_1F1_RTOL):
                reasons.add("miss:bound_1f1")
        elif not bound[0] >= value_ref * (1.0 - 1e-12 - ref_rtol):
            reasons.add("miss:bound_1f1")

        if _raised(report):
            self._error(reasons, "report", _raised(report), op)
        elif t is not None and closed_ref is not None:
            bound_value, dominated = report
            roundoff = 4.0 * EPS * t
            if referenced:     # elsewhere value_ref is this very sum
                adaptive = dominated + t
                self._rel(adaptive, value_ref, True)
                if _miss(adaptive, value_ref, SERIES_TOL_MULT * REPORT_TOL, roundoff):
                    reasons.add("miss:report_adaptive")
            closed = bound_value + t
            self._rel(closed, closed_ref, referenced)
            if _miss(closed, closed_ref, CLOSED_RTOL + ref_rtol, roundoff):
                mc, nc = rounded_orders(fn, m, n)
                explained = CANCEL_ULPS * EPS * closed_form_abs_sum(fn, mc, nc, p3, p4)
                ratio = abs(closed - closed_ref) / explained
                self.v.max_cancel_ratio = max(self.v.max_cancel_ratio, ratio)
                reasons.add("miss:closed_form_cancellation" if ratio <= 1.0
                            else "miss:closed_form")
        self.v.referenced += referenced
        self.v.record(reasons, repr(op))

    def cli(self, argv, cold, inproc, eval_ref: float | None,
            refusal: str | None) -> None:
        """cold: [exit_code, stdout]; inproc: [[exit_code], stdout];
        refusal: the exception an in-process replay raised where the cold
        run exited 3."""
        reasons: set[str] = set()
        rc, out = cold
        if rc != inproc[0][0] or out != inproc[1]:
            reasons.add("miss:cli_output")
        if rc == 3 and refusal == "ToleranceNotMetError":
            reasons.add("refused:oracle_tolerance")
        elif rc in (2, 3):    # the CLI refused: domain or convergence error
            reasons.add(f"raise:exit{rc}:{refusal}")
        elif rc != 0 and argv[0] != "bounds":   # bounds exits 1 on a violation
            reasons.add(f"miss:exit{rc}")
        if eval_ref is not None and rc == 0:
            value = eval_value(out)
            args = dict(zip(argv[2::2], argv[3::2]))
            if args.get("--method") == "truncated":
                if not 0.0 <= value <= eval_ref * (1.0 + 1e-12):
                    reasons.add("miss:truncated")
            else:
                self._rel(value, eval_ref, True)
                if _miss(value, eval_ref, SERIES_TOL_MULT * float(args["--tol"])):
                    reasons.add("miss:series")
        self.v.referenced += eval_ref is not None
        self.v.record(reasons, " ".join(argv))


def closed_form_abs_sum(fn: str, m: float, n: float, p3: float, p4: float) -> float:
    """Sum of the absolute values of the incomplete-gamma terms the
    half-odd closed form adds up at orders (m, n), in the scale of its
    normalized result; over the value it is the summation condition number
    (Higham, Accuracy and Stability of Numerical Algorithms, ch. 4).  Both
    gammas of a difference count.  Evaluated with scipy.special, which the
    package's closed forms do not use."""
    from scipy.special import gamma, gammainc, gammaincc

    if fn == "toronto":
        mi, nu, r, big_b = round(m), round(n - 0.5), p3, p4
        top = mi - nu
        low = [[gammainc(0.5 * (l + 1), x) * gamma(0.5 * (l + 1)) for l in range(top)]
               for x in (r * r, (big_b - r) ** 2 if big_b != r else 0.0, (big_b + r) ** 2)]
        total = 0.0
        for k in range(nu + 1):
            s = mi - nu - 1 - k
            inner = sum(math.comb(s, l) * r ** (s - l) * 0.5
                        * (2.0 * low[0][l] + low[1][l] + low[2][l]) for l in range(s + 1))
            total += _c_k(nu, k) * (2.0 * r) ** (-k) * inner
        return r ** (n - m + 0.5) / math.sqrt(math.pi) * total
    mu, nu, a, b = round(m - 0.5), round(n - 0.5), p3, p4
    xm, xp = 0.5 * (b - a) ** 2, 0.5 * (b + a) ** 2
    g = []
    for l in range(mu + 1):
        h = 0.5 * (l + 1)
        lower_m = gammainc(h, xm) * gamma(h) if b != a else 0.0
        g.append(gamma(h) + lower_m + gammaincc(h, xp) * gamma(h))
    total = 0.0
    for k in range(nu + 1):
        s = mu - k
        inner = sum(math.comb(s, l) * a ** (s - l) * 2.0 ** (0.5 * (l - 1)) * g[l]
                    for l in range(s + 1))
        total += _c_k(nu, k) * a ** (-k) * inner
    return total / (a ** n * math.sqrt(2.0 * math.pi * a))


def _c_k(nu: int, k: int) -> float:
    return math.factorial(nu + k) / (2.0 ** k * math.factorial(k) * math.factorial(nu - k))


def eval_value(stdout: str) -> float:
    """The value column of an `nuttq eval` CSV record."""
    lines = [l for l in stdout.splitlines() if l and not l.startswith("#")]
    header, row = lines[0].split(","), lines[1].split(",")
    return float(row[header.index("value")])
