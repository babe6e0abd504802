"""Nuttall Q evaluators: series routes, closed forms, bounds, identities.

Golden values come from the packaged quadrature reference file; standalone
literals were frozen from 50-digit arbitrary-precision evaluation of the
defining integral.
"""

import math
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from identities import nuttall_integer_series, nuttall_recursion_residual
from nuttq import nuttall
from nuttq.errors import DomainError, NonConvergenceError, TermOverflowError
from nuttq.nuttall import (
    NuttallParams,
    marcum_q,
    nuttall_half_integer_closed,
    nuttall_q,
    nuttall_q_normalized,
    nuttall_series_adaptive,
    nuttall_series_truncated,
    nuttall_truncation_bound,
    nuttall_upper_bound_1f1,
)
from nuttq.special import check_finite, kummer_1f1, upper_inc_gamma
from nuttq.toronto import (
    TorontoParams,
    toronto_series_adaptive,
    toronto_series_truncated,
)


def rel(x, y):
    return abs(x - y) / abs(y)


# (params, truncated, adaptive) per family.  Each family sums its series in
# a walk of its own, read by the same special.walk_truncated and
# special.walk_adaptive, so their contract is tested on each.  a = r = 3
# puts the term hump near index 4.5 or 9, so five terms cannot meet any tol.
SERIES_FAMILIES = [
    (NuttallParams(2.0, 1.0, 3.0, 1.0), nuttall_series_truncated,
     nuttall_series_adaptive),
    (TorontoParams(2.0, 1.0, 3.0, 1.0), toronto_series_truncated,
     toronto_series_adaptive),
]


# Field values where a parameter check decides: the non-finite ones, both
# zeros, the smallest subnormal and a tiny negative, and the largest double.
EDGE_VALUES = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -1e-300,
               1e308]
# Fields that are not floats: the constructors leave them to the full checks
OTHER_VALUES = [2, True, None, "2", 2j, Decimal("NaN"), Fraction(1, 3),
                np.float64(2.0), np.array([2.0])]


def outcome(make, *args):
    """None if make(*args) returns, else the type and text of its error."""
    try:
        make(*args)
    except Exception as exc:  # noqa: BLE001 - compared, not hidden
        return type(exc), str(exc)
    return None


def nuttall_full_checks(m, n, a, b):
    """NuttallParams's full checks on (m, n, a, b), in their order."""
    check_finite(m=m, n=n, a=a, b=b)
    if not m >= 0.0:
        raise DomainError(f"m must be >= 0, got {m}")
    if not n >= 0.0:
        raise DomainError(f"n must be >= 0, got {n}")
    if not a > 0.0:
        raise DomainError(f"a must be > 0, got {a}")
    if not b >= 0.0:
        raise DomainError(f"b must be >= 0, got {b}")


def golden_value(entries, kind, m, n, p3, p4):
    for e in entries:
        if e.kind == kind and (e.m, e.n, e.a_or_r, e.b_or_big_b) == (m, n, p3, p4):
            return e.value
    raise LookupError((kind, m, n, p3, p4))


class TestParams:
    def test_validation(self):
        with pytest.raises(DomainError):
            NuttallParams(-1.0, 0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            NuttallParams(2.0, -0.5, 1.0, 1.0)
        with pytest.raises(DomainError):
            NuttallParams(2.0, 1.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            NuttallParams(2.0, 1.0, 1.0, -0.1)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite(self, bad):
        # a = inf would sum 10^4 terms and b = inf stall the kernel
        for field in range(4):
            args = [2.0, 1.0, 1.0, 1.0]
            args[field] = bad
            with pytest.raises(DomainError, match="must be finite"):
                NuttallParams(*args)

    @pytest.mark.parametrize("value", EDGE_VALUES)
    @pytest.mark.parametrize("field", range(4))
    def test_fast_path_matches_full_checks(self, monkeypatch, field, value):
        # the constructor's one test accepts exactly what the full checks
        # accept, without entering them; a refusal keeps their text
        args = [2.0, 1.0, 1.0, 2.0]
        args[field] = value
        slow = []
        monkeypatch.setattr(nuttall, "check_finite",
                            lambda **kw: slow.append(kw) or check_finite(**kw))
        want = outcome(nuttall_full_checks, *args)
        assert outcome(NuttallParams, *args) == want
        assert bool(slow) == (want is not None)

    @pytest.mark.parametrize("value", OTHER_VALUES, ids=repr)
    @pytest.mark.parametrize("field", range(4))
    def test_other_types_meet_full_checks(self, field, value):
        args = [2.0, 1.0, 1.0, 2.0]
        args[field] = value
        assert (outcome(NuttallParams, *args)
                == outcome(nuttall_full_checks, *args))

    def test_terms_range(self):
        for p, truncated, _ in SERIES_FAMILIES:
            for terms in (0, 501):
                with pytest.raises(DomainError, match=r"terms must be in \[1, 500\]"):
                    truncated(p, terms)
            one, four, five = (truncated(p, t) for t in (1, 4, 5))
            assert (one.terms_used, five.terms_used) == (1, 5)
            assert one.last_term_abs == one.value
            # the P-term sum is the (P-1)-term sum plus the last term, exactly
            assert five.value == four.value + five.last_term_abs
            assert five.converged


class TestSeries:
    def test_truncated_matches_golden(self, golden_entries):
        # a=1 rows so the stored unnormalized value equals the normalized one
        for (m, n, a, b) in [(1.0, 0.0, 1.0, 1.0), (2.0, 1.0, 1.0, 2.0)]:
            want = golden_value(golden_entries, "nuttall", m, n, a, b)
            got = nuttall_series_truncated(NuttallParams(m, n, a, b), 25)
            assert rel(got.value, want) < 1e-12
            assert got.terms_used == 25

    def test_adaptive_matches_golden(self, golden_entries):
        want = golden_value(golden_entries, "nuttall", 3.0, 0.5, 2.0, 1.0)
        got = nuttall_series_adaptive(NuttallParams(3.0, 0.5, 2.0, 1.0))
        assert rel(got.value * 2.0 ** 0.5, want) < 1e-12
        assert got.converged

    def test_b0_is_complete_sum(self):
        # at b=0 the normalized function reduces to a pure gamma-ratio series;
        # Q_{m,m-1}(a,0)/a^(m-1) = 1
        for m, a in [(2.0, 1.0), (3.0, 2.0)]:
            got = nuttall_series_adaptive(NuttallParams(m, m - 1.0, a, 0.0))
            assert rel(got.value, 1.0) < 1e-12

    def test_small_a_collapses_to_first_term(self):
        m, n, b = 2.0, 1.0, 1.5
        want = (upper_inc_gamma((m + n + 1.0) / 2.0, b * b / 2.0)
                / (math.gamma(n + 1.0) * 2.0 ** ((n - m + 1.0) / 2.0)))
        got = nuttall_series_adaptive(NuttallParams(m, n, 1e-8, b))
        assert rel(got.value, want) < 1e-12

    def test_deep_truncation_agrees_with_adaptive(self):
        p = NuttallParams(2.5, 1.5, 2.0, 1.0)
        deep = nuttall_series_truncated(p, 60).value
        adap = nuttall_series_adaptive(p, tol=1e-14).value
        assert rel(deep, adap) < 1e-13

    def test_residual_monotone_past_five_terms(self):
        # the limit is a 60-term sum: the adaptive sum may stop before 26
        for p in (NuttallParams(2.0, 1.0, 1.0, 2.0),
                  NuttallParams(3.0, 0.5, 2.0, 1.0)):
            exact = nuttall_series_truncated(p, 60).value
            res = [abs(exact - nuttall_series_truncated(p, t).value)
                   for t in range(5, 26)]
            for r0, r1 in zip(res, res[1:]):
                assert r1 <= r0 * (1.0 + 1e-12) + 1e-16

    def test_adaptive_tol_floor(self):
        for p, _, adaptive in SERIES_FAMILIES:
            for tol, message in ((1e-15, "tol must be >= 1e-14"),
                                 (math.nan, "tol must be finite, got nan"),
                                 (math.inf, "tol must be finite, got inf")):
                with pytest.raises(DomainError, match=message):
                    adaptive(p, tol=tol)
            assert adaptive(p, tol=1e-14).converged

    def test_adaptive_term_cap(self):
        # a count that is not an integer, inf included, is refused before
        # any term is made; at B = 1e-160 a cap of 2.5 once let the walk run
        # without end, and a depth of 2.5 walked to the 10,000-term cap
        tiny_b = (TorontoParams(2.0, 1.0, 1.0, 1e-160),
                  toronto_series_truncated, toronto_series_adaptive)
        for p, truncated, adaptive in [*SERIES_FAMILIES, tiny_b]:
            for cap in (0, -3):
                with pytest.raises(DomainError,
                                   match=f"max_terms must be >= 1, got {cap}"):
                    adaptive(p, tol=1e-12, max_terms=cap)
            for cap in (2.5, math.inf):
                with pytest.raises(
                        DomainError,
                        match=f"^max_terms must be an integer, got {cap}$"):
                    adaptive(p, tol=1e-12, max_terms=cap)
            with pytest.raises(DomainError,
                               match=r"^terms must be an integer, got 2\.5$"):
                truncated(p, 2.5)
        # an integral float is a count, handed out as an int
        for p, truncated, adaptive in SERIES_FAMILIES:
            for cap in (5, 5.0):
                with pytest.raises(NonConvergenceError,
                                   match=r" in 5 terms$") as exc:
                    adaptive(p, tol=1e-12, max_terms=cap)
                assert type(exc.value.terms) is int and exc.value.terms == 5
                assert exc.value.partial_value == truncated(p, cap).value > 0.0


class TestIntegerSeries:
    def test_agrees_with_general_route(self):
        for (m, n) in [(2.0, 1.0), (3.0, 0.0)]:
            for (a, b) in [(1.0, 1.0), (1.0, 2.0), (2.0, 1.0)]:
                p = NuttallParams(m, n, a, b)
                gen = nuttall_series_truncated(p, 20).value
                fix = nuttall_integer_series(p, 20).value
                assert abs(fix - gen) <= 1e-12 * max(1.0, abs(gen))

    def test_requires_odd_order_sum(self):
        with pytest.raises(DomainError):
            nuttall_integer_series(NuttallParams(2.0, 2.0, 1.0, 1.0), 10)
        with pytest.raises(DomainError):
            nuttall_integer_series(NuttallParams(2.5, 0.5, 1.0, 1.0), 10)

    def test_overflowing_term_raises(self):
        p = NuttallParams(301.0, 0.0, 40.0, 1.0)
        with pytest.raises(TermOverflowError) as exc:
            nuttall_integer_series(p, 500)
        assert str(exc.value) == f"double series term overflows at l=246 for {p}"
        assert exc.value.log_term == 700.4694440361073

    def test_integer_orders_within_classify_order_tolerance(self):
        # both integer routes accept what classify_order calls 'integer'
        # (within 1e-9, either side) and refuse anything further off
        for m in (3.0 + 5e-10, 3.0 - 5e-10):
            assert nuttall_integer_series(NuttallParams(m, 0.0, 1.0, 1.0), 5).value > 0.0
            assert nuttall_recursion_residual(NuttallParams(m, 0.0, 1.0, 1.0)) < 1e-9
        for m, n in ((3.0 + 2e-9, 0.0), (3.0, 2e-9), (2.0, 1.0 - 2e-9)):
            with pytest.raises(DomainError, match="integer route needs integer orders"):
                nuttall_integer_series(NuttallParams(m, n, 1.0, 1.0), 5)
            with pytest.raises(DomainError, match="recursion needs integer orders"):
                nuttall_recursion_residual(NuttallParams(m, n, 1.0, 1.0))


class TestClosedForm:
    def test_frozen_values(self):
        assert rel(nuttall_half_integer_closed(NuttallParams(1.5, 0.5, 1.0, 2.0)),
                   0.39754402807029249) < 1e-12
        assert rel(nuttall_half_integer_closed(NuttallParams(2.5, 0.5, 2.0, 1.0)),
                   2.4651591310769662) < 1e-12
        assert rel(nuttall_half_integer_closed(NuttallParams(2.5, 1.5, 1.0, 0.5)),
                   0.99906112375796677) < 1e-12

    def test_seam_at_b_equals_a(self):
        # sgn(b-a)=0 branch; must agree with the series route
        p = NuttallParams(1.5, 0.5, 1.0, 1.0)
        closed = nuttall_half_integer_closed(p)
        series = nuttall_series_adaptive(p, tol=1e-14).value
        assert rel(closed, series) < 1e-12

    def test_rejects_unsupported_orders(self):
        with pytest.raises(DomainError):
            nuttall_half_integer_closed(NuttallParams(2.0, 0.5, 1.0, 1.0))
        with pytest.raises(DomainError):
            nuttall_half_integer_closed(NuttallParams(1.5, 1.0, 1.0, 1.0))
        with pytest.raises(DomainError):
            nuttall_half_integer_closed(NuttallParams(0.5, 1.5, 1.0, 1.0))

    def test_tiny_a_overflow_is_typed(self):
        # a^-k overflows at (7.5, 7.5); a^n sqrt(2 pi a) underflows to 0 at
        # (1.5, 1.5): both raise TermOverflowError, so the CLI exits 3
        for m, b in ((7.5, 8.0), (1.5, 2.5)):
            p = NuttallParams(m, m, 1e-200, b)
            with pytest.raises(TermOverflowError) as exc:
                nuttall_half_integer_closed(p)
            assert str(exc.value) == (
                f"Nuttall half-odd closed form overflows for {p}")
            assert exc.value.log_term == math.inf
            with pytest.raises(TermOverflowError):
                nuttall_truncation_bound(p, 5)


class TestTruncationBound:
    def test_dominates_on_reference_point(self):
        p = NuttallParams(2.0, 1.0, 1.0, 2.0)
        for t in range(1, 16):
            rep = nuttall_truncation_bound(p, t)
            assert rep.regime_ok
            assert rep.slack >= -1e-10
            assert rep.bound_value >= rep.dominated_quantity - 1e-10

    def test_exact_at_half_odd_orders(self):
        # rounding is the identity there, so the bound collapses to the truth
        rep = nuttall_truncation_bound(NuttallParams(1.5, 0.5, 1.0, 2.0), 5)
        assert abs(rep.slack) < 1e-10

    def test_rounding_can_break_dominance(self):
        # documented failure: lifting n by 0.8 but m by only 0.3 shrinks the
        # closed-form value below the true residual's base value
        rep = nuttall_truncation_bound(NuttallParams(1.2, 0.7, 1.5, 1.0), 5)
        assert rep.regime_ok
        assert -0.3 < rep.slack < -0.15

    def test_rejects_inverted_rounded_orders(self):
        with pytest.raises(DomainError):
            nuttall_truncation_bound(NuttallParams(0.2, 1.7, 1.0, 1.0), 5)


class TestKummerBound:
    def test_equality_at_b0(self):
        for (m, n, a) in [(2.0, 1.0, 1.0), (3.0, 1.0, 2.0), (1.5, 0.5, 0.5),
                          (0.0, 0.0, 1.0), (0.0, 3.3, 2.5), (0.0, 9.0, 6.0),
                          (0.0, 0.5, 0.1)]:
            bound = nuttall_upper_bound_1f1(m, n, a)
            value = nuttall_series_adaptive(NuttallParams(m, n, a, 0.0),
                                            tol=1e-14).value
            assert rel(bound, value) < 1e-12

    def test_dominance_grid(self):
        # the function falls as b rises, so the b=0 form bounds every b
        for m in (1.0, 2.0, 3.0):
            for n in (1.0, 2.0, 3.0):
                for a in (1.0, 2.0, 3.0):
                    bound = nuttall_upper_bound_1f1(m, n, a)
                    for b in (0.1, 0.25):
                        v = nuttall_series_adaptive(NuttallParams(m, n, a, b)).value
                        assert bound >= v - 1e-12

    def test_rejects_nonpositive(self):
        # m = 0 is accepted (c = (n + 1)/2 > 0); a negative m and a <= 0 are not
        for m, n, a in ((-0.5, 1.0, 1.0), (2.0, 1.0, -1.0), (2.0, 1.0, 0.0)):
            with pytest.raises(DomainError, match="need m >= 0"):
                nuttall_upper_bound_1f1(m, n, a)

    def test_overflow_raises(self):
        # 1F1(2; 2; 800) = e^800 overflows, and inf * e^-800 would be nan
        with pytest.raises(TermOverflowError):
            nuttall_upper_bound_1f1(2.0, 1.0, 40.0)

    @pytest.mark.parametrize("m, a", [(400.0, 1.0), (1500.0, 0.1)])
    def test_prefactor_overflow_passes_the_gate(self, m, a):
        # lgamma(c) takes the prefactor's log past the double range, which
        # math.exp would report as a bare OverflowError
        with pytest.raises(TermOverflowError,
                           match=f"1F1 bound overflows at m={m}, n=0.0, a={a}"
                           ) as exc:
            nuttall_upper_bound_1f1(m, 0.0, a)
        c = 0.5 * (m + 1.0)
        assert exc.value.log_term == pytest.approx(
            math.lgamma(c) - 0.5 * (1.0 - m) * math.log(2.0) - 0.5 * a * a)
        assert exc.value.log_term > 700.0

    @pytest.mark.parametrize("a", [5.0, 10.0])
    def test_product_overflow_raises(self, a):
        # the prefactor passes the gate and 1F1 is finite, but their product
        # overflows; the error carries the product's log
        m, c, half_a2 = 300.0, 150.5, 0.5 * a * a
        with pytest.raises(TermOverflowError,
                           match=f"1F1 bound overflows at m={m}, n=0.0, a={a}"
                           ) as exc:
            nuttall_upper_bound_1f1(m, 0.0, a)
        lg = math.lgamma(c) - 0.5 * (1.0 - m) * math.log(2.0) - half_a2
        assert lg < 700.0
        assert exc.value.log_term == pytest.approx(
            lg + math.log(kummer_1f1(c, 1.0, half_a2)))
        assert exc.value.log_term > math.log(sys.float_info.max)


class TestIdentities:
    def test_recursion_residuals(self):
        for m in (2.0, 3.0, 4.0):
            for n in (0.0, 1.0, 2.0):
                for a in (0.5, 1.0, 2.0):
                    for b in (0.5, 1.0, 2.0):
                        res = nuttall_recursion_residual(NuttallParams(m, n, a, b))
                        assert res < 1e-10, (m, n, a, b, res)

    def test_recursion_needs_integer_m_at_least_two(self):
        with pytest.raises(DomainError):
            nuttall_recursion_residual(NuttallParams(1.0, 0.0, 1.0, 1.0))
        with pytest.raises(DomainError):
            nuttall_recursion_residual(NuttallParams(2.5, 0.5, 1.0, 1.0))

    def test_marcum_frozen_and_limits(self, golden_entries):
        want = golden_value(golden_entries, "marcum", 2.0, 1.0, 1.0, 1.0)
        assert rel(marcum_q(2.0, 1.0, 1.0), want) < 1e-12
        assert abs(marcum_q(2.0, 1.5, 0.0) - 1.0) < 1e-13
        assert abs(marcum_q(1.0, 1e-8, 2.0) - math.exp(-2.0)) < 1e-6

    def test_marcum_in_unit_interval(self):
        for m in (1.0, 2.5):
            for a in (0.5, 2.0):
                for b in (0.5, 2.0, 4.0):
                    v = marcum_q(m, a, b)
                    assert 0.0 <= v <= 1.0 + 1e-15

    def test_unnormalized_scaling(self, golden_entries):
        want = golden_value(golden_entries, "nuttall", 3.0, 0.5, 2.0, 1.0)
        assert rel(nuttall_q(3.0, 0.5, 2.0, 1.0), want) < 1e-11
        norm = nuttall_q_normalized(3.0, 0.5, 2.0, 1.0)
        assert rel(norm * 2.0 ** 0.5, want) < 1e-11
