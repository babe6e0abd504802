"""Incomplete Toronto function: series, closed form, bounds, Marcum link,
and the Nuttall series as a referee.

Standalone literals frozen from 50-digit arbitrary-precision evaluation of
the defining finite integral.
"""

import math
import random
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from identities import toronto_marcum_residual
from nuttq import toronto
from nuttq.errors import DomainError, TermOverflowError
from nuttq.nuttall import (
    NuttallParams,
    marcum_q,
    nuttall_series_adaptive,
    nuttall_upper_bound_1f1,
)
from nuttq.special import check_finite, kummer_1f1, lower_inc_gamma
from nuttq.toronto import (
    TorontoParams,
    toronto_closed_form_half,
    toronto_series_adaptive,
    toronto_series_truncated,
    toronto_t,
    toronto_truncation_bound,
    toronto_upper_bound_1f1,
)


def rel(x, y):
    return abs(x - y) / abs(y)


# Field values where a parameter check decides: the non-finite ones, both
# zeros, the smallest subnormal and a tiny negative, and the largest double.
EDGE_VALUES = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -1e-300,
               1e308]
# (m, n) at the integrability edge m - n = -1: exactly on it, and one
# representable step of 2^-40 inside it
INTEGRABILITY_EDGES = [(1.0, 2.0), (1.0 + 2.0 ** -40, 2.0), (-0.0, 1.0),
                       (2.0 ** -40, 1.0)]
# Fields that are not floats: the constructors leave them to the full checks
OTHER_VALUES = [2, True, None, "2", 2j, Decimal("NaN"), Fraction(1, 3),
                np.float64(2.0), np.array([2.0])]


def with_field(field, value):
    """(2, 1, 1, 2) with value in place of field."""
    args = [2.0, 1.0, 1.0, 2.0]
    args[field] = value
    return tuple(args)


def outcome(make, *args):
    """None if make(*args) returns, else the type and text of its error."""
    try:
        make(*args)
    except Exception as exc:  # noqa: BLE001 - compared, not hidden
        return type(exc), str(exc)
    return None


def toronto_full_checks(m, n, r, big_b):
    """TorontoParams's full checks on (m, n, r, B), in their order."""
    check_finite(m=m, n=n, r=r, B=big_b)
    if not n >= 0.0:
        raise DomainError(f"n must be >= 0, got {n}")
    if not m - n > -1.0:
        raise DomainError(f"need m - n > -1 for integrability, got {m - n}")
    if not r > 0.0:
        raise DomainError(f"r must be > 0, got {r}")
    if not big_b > 0.0:
        raise DomainError(f"B must be > 0, got {big_b}")


def golden_value(entries, m, n, r, big_b):
    for e in entries:
        if e.kind == "toronto" and (e.m, e.n, e.a_or_r, e.b_or_big_b) == (m, n, r, big_b):
            return e.value
    raise LookupError((m, n, r, big_b))


class TestParams:
    def test_validation(self):
        with pytest.raises(DomainError):
            TorontoParams(2.0, -0.5, 1.0, 2.0)
        with pytest.raises(DomainError):
            TorontoParams(0.0, 1.5, 1.0, 2.0)   # m - n must exceed -1
        with pytest.raises(DomainError):
            TorontoParams(2.0, 1.0, 0.0, 2.0)
        with pytest.raises(DomainError):
            TorontoParams(2.0, 1.0, 1.0, 0.0)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite(self, bad):
        for field in range(4):
            args = [2.0, 1.0, 1.0, 2.0]
            args[field] = bad
            with pytest.raises(DomainError, match="must be finite"):
                TorontoParams(*args)

    @pytest.mark.parametrize("args", [
        *[with_field(field, value) for field in range(4) for value in EDGE_VALUES],
        *[(m, n, 1.0, 2.0) for m, n in INTEGRABILITY_EDGES]])
    def test_fast_path_matches_full_checks(self, monkeypatch, args):
        # the constructor's one test accepts exactly what the full checks
        # accept, without entering them; a refusal keeps their text
        slow = []
        monkeypatch.setattr(toronto, "check_finite",
                            lambda **kw: slow.append(kw) or check_finite(**kw))
        want = outcome(toronto_full_checks, *args)
        assert outcome(TorontoParams, *args) == want
        assert bool(slow) == (want is not None)

    @pytest.mark.parametrize("value", OTHER_VALUES, ids=repr)
    @pytest.mark.parametrize("field", range(4))
    def test_other_types_meet_full_checks(self, field, value):
        args = with_field(field, value)
        assert (outcome(TorontoParams, *args)
                == outcome(toronto_full_checks, *args))


class TestSeries:
    def test_truncated_matches_golden(self, golden_entries):
        for (m, n, r, big_b) in [(2.0, 1.0, 1.0, 3.0), (2.0, 0.5, 1.0, 2.0),
                                 (3.0, 1.5, 0.8, 2.0)]:
            want = golden_value(golden_entries, m, n, r, big_b)
            got = toronto_series_truncated(TorontoParams(m, n, r, big_b), 30)
            assert rel(got.value, want) < 1e-12

    def test_adaptive_matches_golden(self, golden_entries):
        want = golden_value(golden_entries, 2.0, 1.0, 1.0, 3.0)
        got = toronto_series_adaptive(TorontoParams(2.0, 1.0, 1.0, 3.0))
        assert rel(got.value, want) < 1e-12
        assert got.converged

    def test_b_monotone(self):
        vals = [toronto_series_adaptive(TorontoParams(2.0, 1.0, 1.0, bb)).value
                for bb in (0.5, 1.0, 2.0, 4.0)]
        assert all(x < y for x, y in zip(vals, vals[1:]))

    def test_small_r_limit(self):
        # with n=(m-1)/2 the function tends to the regularized gamma head
        got = toronto_t(3.0, 1.0, 1e-7, 2.0)
        want = lower_inc_gamma(2.0, 4.0) / math.gamma(2.0)
        assert rel(got, want) < 1e-6


class TestClosedForm:
    def test_frozen_values(self):
        assert rel(toronto_closed_form_half(3.0, 0.5, 1.0, 2.0),
                   1.0423512909174454) < 1e-12
        assert rel(toronto_closed_form_half(5.0, 1.5, 0.7, 1.5),
                   0.67996476889912687) < 1e-12

    def test_upper_limit_below_r(self):
        # B < r exercises the sgn(B-r) < 0 branch
        assert rel(toronto_closed_form_half(3.0, 1.5, 2.0, 1.0),
                   0.017995952097975600) < 1e-12

    def test_agrees_with_series(self):
        for (m, n, r, big_b) in [(2.0, 0.5, 1.0, 2.0), (4.0, 1.5, 1.2, 2.5)]:
            closed = toronto_closed_form_half(m, n, r, big_b)
            series = toronto_series_adaptive(TorontoParams(m, n, r, big_b),
                                             tol=1e-14).value
            assert rel(closed, series) < 1e-12

    def test_marcum_reduction(self):
        # T_B(2, 1/2, r) = 1 - Q_{3/2}(r sqrt2, B sqrt2)
        closed = toronto_closed_form_half(2.0, 0.5, 1.0, 2.0)
        q = marcum_q(1.5, math.sqrt(2.0), 2.0 * math.sqrt(2.0))
        assert abs(closed - (1.0 - q)) < 1e-12

    def test_rejects_unsupported_orders(self):
        with pytest.raises(DomainError):
            toronto_closed_form_half(2.5, 0.5, 1.0, 2.0)
        with pytest.raises(DomainError):
            toronto_closed_form_half(2.0, 1.0, 1.0, 2.0)
        with pytest.raises(DomainError):
            toronto_closed_form_half(2.0, 1.5, 1.0, 2.0)  # needs m >= 2n

    def test_tiny_r_overflow_is_typed(self):
        # r^(n-m+1/2) overflows at r = 1e-200, so the CLI exits 3
        with pytest.raises(TermOverflowError) as exc:
            toronto_closed_form_half(10.0, 0.5, 1e-200, 2.0)
        assert str(exc.value) == ("Toronto half-odd closed form overflows at "
                                  "m=10.0, n=0.5, r=1e-200, B=2.0")
        assert exc.value.log_term == math.inf


class TestTruncationBound:
    def test_exact_at_native_orders(self):
        # integer m with half-odd n round to themselves
        for t in (1, 5, 10):
            rep = toronto_truncation_bound(TorontoParams(2.0, 0.5, 1.0, 3.0), t)
            assert rep.regime_ok
            assert abs(rep.slack) < 1e-8

    def test_dominates_at_small_r(self):
        for t in range(1, 11):
            rep = toronto_truncation_bound(TorontoParams(3.0, 1.5, 0.5, 2.0), t)
            assert rep.slack >= -1e-8

    def test_large_r_small_B_breaks_dominance(self):
        # documented failure: rounding n = 1 down to 1/2 scales the k = 0
        # term by rho_0 = 1/(r Gamma(3/2)) = 0.564 at r=2, so the reference
        # is not termwise larger, and at B=2 it lands below the true residual
        rep = toronto_truncation_bound(TorontoParams(2.0, 1.0, 2.0, 2.0), 5)
        assert rep.regime_ok
        assert -0.03 < rep.slack < -0.02

    def test_rejects_small_n(self):
        with pytest.raises(DomainError):
            toronto_truncation_bound(TorontoParams(2.0, 0.2, 1.0, 2.0), 5)

    @pytest.mark.parametrize("m, n, message", [
        (2.0, 1.6, "closed form needs m >= 2n, got m=2.0 < 2n=3.0"),
        (0.0, 0.6, "need m >= 1 and n >= 0.5, got m=0.0, n=0.5"),
    ])
    def test_rounded_orders_refused_before_the_walk(self, monkeypatch, m, n,
                                                    message):
        # the closed form's refusal of the rounded orders comes before any
        # term of the series, and before the depth check
        calls = []
        monkeypatch.setattr(toronto, "lower_inc_gamma_log",
                            lambda *args: calls.append(args))
        p = TorontoParams(m, n, 1.0, 2.0)
        for depths in ([5], [0]):
            with pytest.raises(DomainError) as exc:
                toronto.toronto_truncation_bounds(p, depths)
            assert str(exc.value) == message
        assert calls == []


class TestKummerApproximation:
    def test_upper_limit_free(self):
        # the approximation never sees B: same inputs, same float out
        x = toronto_upper_bound_1f1(2.0, 1.0, 0.5)
        y = toronto_upper_bound_1f1(2.0, 1.0, 0.5)
        assert x == y

    def test_dominance_small_r(self):
        for m in (0.5, 1.0):
            for n in (0.5, 1.0):
                for r in (0.3, 0.5):
                    bound = toronto_upper_bound_1f1(m, n, r)
                    v = toronto_series_adaptive(TorontoParams(m, n, r, 2.0)).value
                    assert bound >= v - 1e-12

    def test_tight_when_B_saturates(self):
        # beyond B ~ 8 the finite integral carries the full mass, so the
        # approximation matches to quadrature accuracy
        for (m, n, r) in [(1.0, 0.5, 0.5), (2.0, 1.0, 0.5)]:
            bound = toronto_upper_bound_1f1(m, n, r)
            v = toronto_series_adaptive(TorontoParams(m, n, r, 8.0)).value
            assert rel(bound, v) < 1e-9

    def test_rejects_bad_orders(self):
        with pytest.raises(DomainError):
            toronto_upper_bound_1f1(2.0, -0.5, 1.0)
        with pytest.raises(DomainError):
            toronto_upper_bound_1f1(2.0, 1.0, 0.0)

    def test_overflow_raises(self):
        with pytest.raises(TermOverflowError):
            toronto_upper_bound_1f1(2.0, 1.0, 40.0)

    def test_tiny_r_power_overflow_raises(self):
        # r^(2n-m+1) = 1e360 at m = 10, n = 0, r = 1e-40: the prefactor
        # passes the overflow gate, not math.exp's OverflowError
        with pytest.raises(TermOverflowError, match="1F1 bound overflows") as err:
            toronto_upper_bound_1f1(10.0, 0.0, 1e-40)
        assert err.value.log_term > 700.0
        assert toronto_upper_bound_1f1(10.0, 0.0, 1e-30) > 0.0

    def test_product_overflow_raises(self):
        # the prefactor passes the gate and 1F1 is finite, but their product
        # overflows; the error carries the product's log
        m, r = 690.0, 5.0
        with pytest.raises(TermOverflowError,
                           match="1F1 bound overflows at m=690.0, n=0.0, r=5.0"
                           ) as err:
            toronto_upper_bound_1f1(m, 0.0, r)
        lg = math.lgamma(0.5 * (m + 1.0)) + (1.0 - m) * math.log(r) - r * r
        assert lg < 700.0
        assert err.value.log_term == pytest.approx(
            lg + math.log(kummer_1f1(0.5 * (m + 1.0), 1.0, r * r)))
        assert err.value.log_term > math.log(sys.float_info.max)


class TestMarcumLink:
    def test_residuals_small(self):
        assert toronto_marcum_residual(1.0, 1.0, 2.0) < 1e-9
        assert toronto_marcum_residual(3.0, 0.5, 1.0) < 1e-9

    def test_residual_grid(self):
        for m in (1.0, 3.0):
            for r in (0.5, 1.0, 2.0):
                for big_b in (1.0, 2.0):
                    assert toronto_marcum_residual(m, r, big_b) < 1e-9


class TestNuttallReferee:
    def test_series_meet_the_nuttall_identity(self):
        # With a = r sqrt2 and b = B sqrt2, substituting x = t sqrt2 gives
        #     T_B(m, n, r) = a^(2n-m+1) [Qn_{m-n,n}(a, 0) - Qn_{m-n,n}(a, b)]
        # for m >= n: a referee for the Toronto series that needs no
        # quadrature.  The worst residual over 6,000 such points was 65 eps.
        eps = sys.float_info.epsilon
        rng = random.Random(20)
        for _ in range(300):
            n = rng.uniform(0.0, 10.0)
            m = rng.uniform(n, 10.0)
            r = 6.0 * (1.0 - rng.random())
            big_b = 8.0 * (1.0 - rng.random())
            a, b = math.sqrt(2.0) * r, math.sqrt(2.0) * big_b
            t = toronto_series_adaptive(TorontoParams(m, n, r, big_b),
                                        tol=1e-14).value
            q0, qb = (nuttall_series_adaptive(NuttallParams(m - n, n, a, lim),
                                              tol=1e-14).value
                      for lim in (0.0, b))
            scale = a ** (2.0 * n - m + 1.0)
            assert abs(t - scale * (q0 - qb)) <= 128 * eps * scale * q0, \
                (m, n, r, big_b)

    def test_1f1_bounds_meet_the_nuttall_identity(self):
        # The same substitution takes the Nuttall 1F1 bound at orders
        # (m - n, n) and a = r sqrt2 to the Toronto one, for m > n:
        #     bound_T(m, n, r) = a^(2n-m+1) bound_Q(m - n, n, a).
        # The worst relative difference over 3,000 such points was 52 eps.
        eps = sys.float_info.epsilon
        rng = random.Random(21)
        for _ in range(300):
            n = rng.uniform(0.0, 10.0)
            m = rng.uniform(n, 10.0)
            assert m > n
            r = 6.0 * (1.0 - rng.random())
            a = math.sqrt(2.0) * r
            t = toronto_upper_bound_1f1(m, n, r)
            q = a ** (2.0 * n - m + 1.0) * nuttall_upper_bound_1f1(m - n, n, a)
            assert rel(q, t) <= 128 * eps, (m, n, r)
