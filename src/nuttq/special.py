"""Scalar special-function kernels and what the series evaluators share.

Everything here is hand-rolled on top of ``math`` so the series routes stay
fully independent of the scipy-based quadrature oracle.  The kernels cover
what the evaluators need: incomplete gamma functions (linear and log
domain), Kummer's confluent hypergeometric function, and the
half-odd-integer rounding helpers.  One more kernel, ``bessel_i_scaled``,
e^-x I_nu(x), is called by no evaluator; the checks on them use it.  The
incomplete gamma and Bessel kernels refuse, before they start, an argument
so large that their iterations would stall (``_GAMMA_X_MAX``,
``_BESSEL_X_MAX``).

Each series family, Nuttall Q and incomplete Toronto, sums its positive
terms in one loop of its own, its walk: the loop makes each term by the
family's recurrence, adds it to the running sum and stops on a proven
bound on the rest of the tail, and yields only at checkpoints (see
``Walk``).  Every checkpoint, each P-term partial sum S_P as well as the
stop, is a ``SeriesResult``.  What the walks share lives here: the
argument checks, the tol floor (``ADAPTIVE_TOL_MIN``), the default
tolerance (``SERIES_TOL``), the ``NonConvergenceError`` they raise
(``not_converged``), and the readers ``walk_truncated``, ``walk_adaptive``
and ``truncation_reports``, which forms both families' truncation-bound
reports at every requested depth from one walk.  The
closed-form core, ``half_odd_bessel_sum``, sums the finite
double sum that the elementary form of I_{nu+1/2} gives; both families'
half-odd closed forms pass it their incomplete gammas.  Those all have
order (l+1)/2, so the half-integer ladders build them:
``_half_gamma_upper`` steps Gamma(s+1, x) = s Gamma(s, x) + x^s e^-x up
from sqrt(pi) erfc(sqrt(x)) and e^-x with no kernel call, and
``_half_gamma_lower`` takes the complement of that where x >= s + 1 and
steps down from at most one kernel call per parity above it.  A Nuttall
closed form therefore makes no kernel call, a Toronto one at most 6.

A value's fixed cost outside its term loop is mostly the records it
builds, so ``SeriesResult`` and ``BoundReport`` (like the families'
parameter records) are slotted and built positionally, and the parameter
records accept four floats in range in one test before their full checks.

Inside the loops the cost is the interpreter's arithmetic, and CPython
(3.11 on) runs an operation on two floats by a specialized fast path but
one that mixes an int with a float by its generic one.  So the counters
of the hot loops, the two walks' term indices and the steps of
``_log_lower_series``, ``_log_upper_cf`` and ``kummer_1f1``, are floats,
and so are the constants they meet in each step.  That changes no bit:
CPython converts an int operand to the same double before the IEEE
operation, and a float counter is exact below 2^53, which no loop nears:
the kernels stop within 500,000 steps and a walk at its max_terms (10,000
by default).  Where a count leaves a loop, in a ``SeriesResult``, an
error's ``terms`` or a message, it is ``int(...)`` of the counter.

Every log-domain value that becomes a linear one passes one overflow gate,
``exp_checked``: past ``LOG_OVERFLOW`` it raises ``TermOverflowError``
carrying the log value, which both families' terms use as well as the
kernels here.  ``exp_times_checked`` puts a product e^lg * f (both
families' 1F1 bounds) through the same gate and refuses it, with log_term
lg + log f, where only the product overflows.

Conventions: ``lower_inc_gamma(a, x)`` is the unregularized integral from 0
to x of t^(a-1) e^(-t) dt, ``upper_inc_gamma`` its complement on [x, inf).
Orders are real and positive throughout.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .errors import DomainError, NonConvergenceError, TermOverflowError

__all__ = [
    "SeriesResult",
    "BoundReport",
    "ceil_half",
    "floor_half",
    "sgn",
    "classify_order",
    "lower_inc_gamma",
    "upper_inc_gamma",
    "lower_inc_gamma_log",
    "upper_inc_gamma_log",
    "bessel_i_scaled",
    "kummer_1f1",
]

# Largest exponent exp() can take before a double overflows.
LOG_OVERFLOW = 700.0
# A term carried by a recurrence is trusted only inside [TERM_MIN, TERM_MAX]:
# below, it has lost digits to underflow; above, the log-domain term decides
# whether it overflows.  Outside, the series recompute it in log domain.
TERM_MIN = sys.float_info.min
TERM_MAX = math.exp(LOG_OVERFLOW)
_EPS = 1e-17
_MAX_KERNEL_TERMS = 500_000
# Largest argument each kernel accepts.  Past 2^53 the continued fraction's
# step b += 2 starts to round away (it stalls from about x = 2^54 on); the
# Bessel series peaks near term x/2 and, past x of about 9.9e5, cannot
# finish within _MAX_KERNEL_TERMS.  Both kernels refuse larger x at once
# with DomainError rather than spin to the cap.
_GAMMA_X_MAX = 2.0 ** 53
_BESSEL_X_MAX = 9e5
_ORDER_TOL = 1e-9
_KUMMER_RTOL = 1e-16
_KUMMER_MAX_TERMS = 10_000

# Summation-core limits shared by both series families.
MAX_TRUNC_TERMS = 500
DEFAULT_MAX_TERMS = 10_000
ADAPTIVE_TOL_MIN = 1e-14
# the default relative tol of every adaptive series function, and the CLI's
# series tol where no option sets one (compare --method adaptive, bounds
# --kind kummer, eval's --tol default)
SERIES_TOL = 1e-12

# A family's walk(p, depths, tol, max_terms) sums its series from term 0 in
# one loop and yields only at checkpoints, each a SeriesResult: the partial
# sum SeriesResult(S_P, P, t_{P-1}, True) at each depth P of depths
# (distinct, increasing, none above max_terms), in order; then, once no
# depth is left, the sum S at the first term t where the tail after t is
# proven at most tol * S.  The family's ratio majorant rho_i bounds every
# term ratio t_{j+1}/t_j from index i on, so once rho < 1 that tail is at
# most t rho / (1 - rho): at a term with t <= tol * S the walk forms rho
# and stops iff rho < 1 and t rho <= tol * S (1 - rho).  It raises
# not_converged(p, tol, max_terms, sum) when max_terms terms are summed
# without the rule holding.  No term past the checkpoint being read is made.
Walk = Callable[..., Iterator["SeriesResult"]]


@dataclass(frozen=True, slots=True)
class SeriesResult:
    """Outcome of summing a series: the value plus convergence diagnostics."""

    value: float
    terms_used: int
    last_term_abs: float
    converged: bool


@dataclass(frozen=True, slots=True)
class BoundReport:
    """An analytic bound next to the quantity it is supposed to dominate.

    ``slack = bound_value - dominated_quantity``; nonnegative slack means the
    bound held.  ``regime_ok`` records whether the parameters sit inside the
    regime the bound is advertised for (the bound may hold outside it too).
    """

    bound_value: float
    dominated_quantity: float
    regime_ok: bool
    slack: float


def check_terms(terms: int) -> None:
    """Raise DomainError unless terms is an integer (an integral float such
    as 3.0 passes) with 1 <= terms <= MAX_TRUNC_TERMS."""
    if not (1 <= terms <= MAX_TRUNC_TERMS):
        raise DomainError(f"terms must be in [1, {MAX_TRUNC_TERMS}], got {terms}")
    if terms % 1:
        raise DomainError(f"terms must be an integer, got {terms}")


def not_converged(p, tol: float, max_terms: int,
                  partial: float) -> NonConvergenceError:
    """The error a walk raises once max_terms terms are summed without the
    stop rule holding: it names the parameters p and carries the partial
    sum."""
    return NonConvergenceError(
        f"series for {p} did not meet tol={tol} in {max_terms} terms",
        partial_value=partial, terms=max_terms)


def walk_truncated(walk: Walk, p, terms: int) -> SeriesResult:
    """Plain partial sum of the first terms terms: the walk's first
    checkpoint, as it is.

    For a positive-term series its distance to the limit is exactly the
    tail, so the result is reported converged at the requested depth.
    """
    check_terms(terms)
    return next(walk(p, (terms,), ADAPTIVE_TOL_MIN, DEFAULT_MAX_TERMS))


def walk_adaptive(walk: Walk, p, tol: float, max_terms: int) -> SeriesResult:
    """Sum the series until the tail past the last term made is proven at
    most tol * sum: the walk's stop checkpoint (see Walk).

    Raises DomainError for a tol that is not finite or is below
    ADAPTIVE_TOL_MIN and for a max_terms below 1 or not an integer (inf
    included; an integral float such as 3.0 passes), before any term is
    made, and the walk's not_converged error once max_terms terms have
    been summed.
    """
    if not (ADAPTIVE_TOL_MIN <= tol < math.inf and max_terms >= 1
            and max_terms % 1 == 0):
        check_finite(tol=tol)
        if tol < ADAPTIVE_TOL_MIN:
            raise DomainError(f"tol must be >= {ADAPTIVE_TOL_MIN}, got {tol}")
        if max_terms >= 1:
            raise DomainError(f"max_terms must be an integer, got {max_terms}")
        raise DomainError(f"max_terms must be >= 1, got {max_terms}")
    # With no depth asked, the stop is the walk's one checkpoint.  Reading
    # the walk to its end lets it return: a walk dropped at its yield is
    # closed by a GeneratorExit thrown into it, about 0.3 us a value.
    [stop] = walk(p, (), tol, max_terms)
    return stop


def truncation_reports(walk: Walk, p, depths: Sequence[int],
                       closed: Callable[[], float],
                       regime_ok: bool) -> list[BoundReport]:
    """Truncation-bound reports at each depth P in depths, from one walk of
    the positive-term series:

        bound  = closed() - S_P
        actual = A - S_P

    S_P is the P-term partial sum and A the sum to ADAPTIVE_TOL_MIN, whose
    not_converged error names p.  closed() is the closed-form value the
    bound rests on, and regime_ok is copied into every report; the slack
    bound - actual = closed() - A does not depend on P.

    Every depth is checked first.  The walk then yields S_P at each
    distinct depth in increasing order, and A last, all off one running
    sum: the same additions in the same order as a separate walk per sum.
    The head of the walk, up to the deepest P, comes before closed(), so an
    error in it is the one raised; the rest of the walk comes after.  A
    caller refuses the orders closed() cannot take before calling this, so
    that refusal comes before any depth check or term.
    """
    if not depths:
        raise DomainError("truncation reports need at least one depth")
    for depth in depths:
        check_terms(depth)
    distinct = sorted(set(depths))
    checkpoints = walk(p, distinct, ADAPTIVE_TOL_MIN, DEFAULT_MAX_TERMS)
    partial = {depth: next(checkpoints).value for depth in distinct}
    exact = closed()
    limit = next(checkpoints).value
    reports = []
    for depth in depths:
        bound = exact - partial[depth]
        residual = limit - partial[depth]
        reports.append(BoundReport(bound_value=bound, dominated_quantity=residual,
                                   regime_ok=regime_ok, slack=bound - residual))
    return reports


def half_odd_bessel_sum(nu: int, top: int, x: float, y: float,
                        weights: Sequence[float], minus: Sequence[float],
                        plus: Sequence[float]) -> float:
    """The finite sum both half-odd closed forms reduce to,

        sum_{k=0}^{nu} c_k x^-k [(-1)^k J(s_k, y, minus)
                                 + (-1)^(nu+1) J(s_k, -y, plus)],
        c_k = (nu+k)! / (2^k k! (nu-k)!),   s_k = top - k,
        J(s, y, g) = sum_{l=0}^{s} C(s,l) y^(s-l) weights[l] g[l],

    from the elementary form of I_{nu+1/2}.  minus, plus and weights hold
    the per-l factors (at least top + 1 of each); the caller computes the
    incomplete gammas in them once per value.  Each summand is the product
    C(s,l) y^(s-l) weights[l] g[l] taken left to right.  The powers y^i
    are formed once per value, and each summand's common factor
    C(s,l) y^(s-l) weights[l] once for both sums: for y > 0, (-y)^j is
    -(y^j) for odd j, bit for bit (float ** negates the power of |y|), so
    J(s, -y, plus) subtracts the summands where s - l is odd.
    """
    powers = [y ** i for i in range(top + 1)]
    total = 0.0
    for k in range(nu + 1):
        c_k = (math.factorial(nu + k)
               / (2.0 ** k * math.factorial(k) * math.factorial(nu - k)))
        outer = c_k * x ** (-k)
        s = top - k
        j_minus = j_plus = 0.0
        for l in range(s + 1):
            common = math.comb(s, l) * powers[s - l] * weights[l]
            j_minus += common * minus[l]
            if (s - l) & 1:
                j_plus -= common * plus[l]
            else:
                j_plus += common * plus[l]
        total += outer * ((-1) ** k * j_minus + (-1) ** (nu + 1) * j_plus)
    return total


def _half_gamma_upper(count: int, x: float) -> list[float]:
    """Gamma((l+1)/2, x) for l < count, with no kernel call.

    Two interleaved upward ladders, over half-odd orders from
    Gamma(1/2, x) = sqrt(pi) erfc(sqrt(x)) and over integer orders from
    Gamma(1, x) = e^-x, each stepped by Gamma(s+1, x) = s Gamma(s, x) +
    x^s e^-x.  Every step adds positive quantities, so the relative error
    grows at most linearly with the order.  At x = 0 each entry is
    math.gamma((l+1)/2); where e^-x underflows (x past about 745) the
    entries underflow with it.
    """
    if x == 0.0:
        return [math.gamma(0.5 * (l + 1)) for l in range(count)]
    e = math.exp(-x)
    upper = [math.sqrt(math.pi) * math.erfc(math.sqrt(x)), e][:count]
    # x^s e^-x at s = (l+1)/2 for the next step of each ladder
    power = [math.sqrt(x) * e, x * e]
    for l in range(count - 2):
        upper.append(0.5 * (l + 1) * upper[l] + power[l & 1])
        power[l & 1] *= x
    return upper


def _half_gamma_lower(count: int, x: float,
                      kernel: Callable[[float, float], float]) -> list[float]:
    """gamma((l+1)/2, x) for l < count, with at most two kernel calls.

    Where x >= s + 1 an entry is Gamma(s) - Gamma(s, x) from
    _half_gamma_upper: there Gamma(s, x) / Gamma(s) stays below 1/2, so
    the difference does not cancel.  Above that split each parity's
    ladder takes kernel(s, x) at its top order and steps down by
    gamma(s, x) = (gamma(s+1, x) + x^s e^-x) / s, which adds only positive
    quantities.  kernel is the caller's own lower_inc_gamma, so a caller
    that rebinds that name sees every call.  At x = 0 every entry is 0.0.
    """
    if x == 0.0:
        return [0.0] * count
    # entries l < split have x >= (l+1)/2 + 1, i.e. l + 3 <= 2x
    split = min(count, max(0, math.floor(2.0 * x) - 2))
    lower = [math.gamma(0.5 * (l + 1)) - g
             for l, g in enumerate(_half_gamma_upper(split, x))]
    lower += [0.0] * (count - split)
    e = math.exp(-x)
    for l in range(count - 1, split - 1, -1):
        s = 0.5 * (l + 1)
        lower[l] = (kernel(s, x) if l + 2 >= count
                    else (lower[l + 2] + x ** s * e) / s)
    return lower


def exp_checked(lg: float, message: str, *args) -> float:
    """math.exp(lg), the one overflow gate of the log-domain values.

    Raises TermOverflowError(message.format(*args), log_term=lg) when lg
    exceeds LOG_OVERFLOW.  The message is formatted only then, so a caller
    pays nothing on the common path for the parameters it names.
    """
    if lg > LOG_OVERFLOW:
        raise TermOverflowError(message.format(*args), log_term=lg)
    return math.exp(lg)


def exp_times_checked(lg: float, factor: Callable[[], float], message: str,
                      *args) -> float:
    """exp_checked(lg, message, *args) * factor(), with factor() > 0 made
    only once e^lg has passed the gate.

    Where both are finite but the product overflows, raises
    TermOverflowError(message.format(*args)) with log_term lg + log
    factor().  factor is the caller's own call, so a caller that rebinds a
    kernel name sees the call.
    """
    prefactor = exp_checked(lg, message, *args)
    value = factor()
    product = prefactor * value
    if product == math.inf:
        raise TermOverflowError(message.format(*args),
                                log_term=lg + math.log(value))
    return product


def check_finite(**values: float) -> None:
    """Raise DomainError naming the first keyword value that is +-inf or nan."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")


def ceil_half(x: float) -> float:
    """Smallest half-odd integer >= x (identity on half-odd integers)."""
    return math.ceil(x - 0.5) + 0.5


def floor_half(x: float) -> float:
    """Largest half-odd integer <= x (identity on half-odd integers)."""
    return math.floor(x + 0.5) - 0.5


def sgn(x: float) -> int:
    """Sign of x with sgn(0) = 0."""
    return (x > 0) - (x < 0)


def classify_order(x: float) -> str:
    """Classify an order as 'integer', 'half-odd' or 'general' within 1e-9."""
    frac = x - math.floor(x)
    if frac <= _ORDER_TOL or frac >= 1.0 - _ORDER_TOL:
        return "integer"
    if abs(frac - 0.5) <= _ORDER_TOL:
        return "half-odd"
    return "general"


def _log_lower_series(a: float, x: float) -> float:
    # gamma_lower(a,x) = x^a e^-x * sum_k x^k / (a (a+1) ... (a+k)),
    # the stable branch for x < a + 1.  k is a float (see the module
    # docstring).
    term = 1.0 / a
    total = term
    cap = float(_MAX_KERNEL_TERMS)
    k = 0.0
    while True:
        k += 1.0
        term *= x / (a + k)
        total += term
        if term < _EPS * total:
            break
        if k > cap:
            raise NonConvergenceError(
                f"lower incomplete gamma series stalled at a={a}, x={x}",
                partial_value=total, terms=int(k))
    return a * math.log(x) - x + math.log(total)


def _log_upper_cf(a: float, x: float) -> float:
    # Gamma_upper(a,x) = x^a e^-x * CF, modified Lentz evaluation of the
    # standard continued fraction; the stable branch for x >= a + 1.  Its
    # steps i = 1, 2, ... are floats (see the module docstring).
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    last = _MAX_KERNEL_TERMS - 1.0
    i = 0.0
    while i < last:
        i += 1.0
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return a * math.log(x) - x + math.log(h)
    raise NonConvergenceError(
        f"upper incomplete gamma continued fraction stalled at a={a}, x={x}",
        partial_value=h, terms=_MAX_KERNEL_TERMS)


def _check_gamma_args(a: float, x: float) -> None:
    if 0.0 < a < math.inf and 0.0 <= x <= _GAMMA_X_MAX:
        # a one-element array passes the comparisons, but in the lower
        # series its sum and term would be one array that never stops
        if type(a) is float or not getattr(a, "ndim", 0):
            return
        raise TypeError(f"incomplete gamma order must be a scalar, got a={a!r}")
    if not (a > 0.0):
        raise DomainError(f"incomplete gamma order must be positive, got a={a}")
    if x < 0.0 or math.isnan(x):
        raise DomainError(f"incomplete gamma argument must be >= 0, got x={x}")
    # an infinite order or argument never meets the kernels' stopping rules
    check_finite(a=a, x=x)
    raise DomainError(f"incomplete gamma argument must be <= 2^53, got x={x}")


def _log_complement(a: float, log_part: float) -> float:
    # log(Gamma(a) - e^log_part) for the complement branches, where
    # e^log_part / Gamma(a) is bounded away from 1 so log1p does not cancel
    frac = math.exp(log_part - math.lgamma(a))
    if frac >= 1.0:  # roundoff guard, only reachable at the branch seam
        frac = math.nextafter(1.0, 0.0)
    return math.lgamma(a) + math.log1p(-frac)


def lower_inc_gamma_log(a: float, x: float) -> float:
    """log of the lower incomplete gamma function; -inf at x = 0.

    Stays finite for large orders where the linear value would underflow
    (e.g. a ~ 500, x ~ 60).  Both gamma kernels take a finite order a > 0
    and 0 <= x <= 2^53, and raise DomainError otherwise.
    """
    _check_gamma_args(a, x)
    if x == 0.0:
        return -math.inf
    if x < a + 1.0:
        return _log_lower_series(a, x)
    # complement branch: Q(a,x) < ~0.5 here
    return _log_complement(a, _log_upper_cf(a, x))


def upper_inc_gamma_log(a: float, x: float) -> float:
    """log of the upper incomplete gamma function; lgamma(a) at x = 0."""
    _check_gamma_args(a, x)
    if x == 0.0:
        return math.lgamma(a)
    if x >= a + 1.0:
        return _log_upper_cf(a, x)
    # complement branch: P(a,x) is bounded away from 1 for x < a + 1
    return _log_complement(a, _log_lower_series(a, x))


def lower_inc_gamma(a: float, x: float) -> float:
    return exp_checked(lower_inc_gamma_log(a, x),
                       "lower incomplete gamma overflows at a={}, x={}", a, x)


def upper_inc_gamma(a: float, x: float) -> float:
    return exp_checked(upper_inc_gamma_log(a, x),
                       "upper incomplete gamma overflows at a={}, x={}", a, x)


def bessel_i_scaled(nu: float, x: float) -> float:
    """e^-x I_nu(x) for finite nu >= 0 and 0 <= x <= 9e5 (DomainError
    otherwise): a Bessel value that does not overflow where I_nu(x) does.
    No evaluator calls it; the checks on them do."""
    # A nan order or an infinite or huge argument would never meet the
    # stopping rule below, so all are refused.
    if not (0.0 <= nu < math.inf and 0.0 <= x <= _BESSEL_X_MAX):
        if nu < 0.0:
            raise DomainError(f"Bessel order must be >= 0, got nu={nu}")
        if x < 0.0 or math.isnan(x):
            raise DomainError(f"Bessel argument must be >= 0, got x={x}")
        check_finite(nu=nu, x=x)
        raise DomainError(
            f"Bessel argument must be <= {_BESSEL_X_MAX:g}, got x={x}")
    if x == 0.0:
        return 1.0 if nu == 0.0 else 0.0
    # Ascending series sum_k (x/2)^(nu+2k) / (k! Gamma(nu+k+1)), summed as a
    # ratio recurrence with periodic rescaling so large x stays in range.
    q = 0.25 * x * x
    ratio = total = 1.0
    shift = 0.0
    k = 0
    while True:
        k += 1
        ratio *= q / (k * (nu + k))
        total += ratio
        if ratio < _EPS * total:
            break
        if total > 1e250:
            shift += math.log(total)
            ratio /= total
            total = 1.0
        if k > _MAX_KERNEL_TERMS:
            raise NonConvergenceError(
                f"Bessel I series stalled at nu={nu}, x={x}",
                partial_value=total, terms=k)
    return math.exp(nu * math.log(0.5 * x) - math.lgamma(nu + 1.0)
                    + math.log(total) + shift - x)


def kummer_1f1(a: float, b: float, x: float) -> float:
    """Kummer's confluent hypergeometric function 1F1(a; b; x).

    Plain ascending series; adequate for the moderate nonnegative arguments
    the bounds use (x = a^2/2 or r^2 well under the overflow range).  Stops
    once a term falls below 1e-16 of the sum.  Raises DomainError for a nan
    argument or when b is a nonpositive integer (a pole of 1F1),
    TermOverflowError when the sum overflows a double, and
    NonConvergenceError after 10,000 terms.
    """
    if math.isnan(a) or math.isnan(b) or math.isnan(x):
        raise DomainError(f"1F1 arguments must not be nan, got a={a}, b={b}, x={x}")
    if b <= 0.0 and abs(b - round(b)) < 1e-9:
        raise DomainError(f"1F1 pole: b={b} is a nonpositive integer")
    if x < 0.0:
        # the ascending series alternates there; out of contract
        raise DomainError(f"1F1 argument must be >= 0, got {x}")
    term = 1.0
    total = 1.0
    # k = 0, 1, ... as floats (see the module docstring)
    cap = float(_KUMMER_MAX_TERMS)
    k = 0.0
    while k < cap:
        term *= (a + k) * x / ((b + k) * (k + 1.0))
        total += term
        if math.isinf(total):
            # log_term is inf when the term itself overflowed
            raise TermOverflowError(
                f"1F1 series overflows at k={int(k)} for a={a}, b={b}, x={x}",
                log_term=math.log(abs(term)))
        if abs(term) < _KUMMER_RTOL * abs(total):
            return total
        k += 1.0
    raise NonConvergenceError(
        f"1F1 series did not converge for a={a}, b={b}, x={x}",
        partial_value=total, terms=_KUMMER_MAX_TERMS)
