"""Nuttall Q evaluators: series routes, closed forms, bounds, identities.

Golden values come from the packaged quadrature reference file; standalone
literals were frozen from 50-digit arbitrary-precision evaluation of the
defining integral.
"""

import math

import pytest

from nuttq.errors import DomainError, NonConvergenceError, TermOverflowError
from nuttq.nuttall import (
    NuttallParams,
    marcum_q,
    nuttall_half_integer_closed,
    nuttall_integer_series,
    nuttall_q,
    nuttall_q_normalized,
    nuttall_recursion_residual,
    nuttall_series_adaptive,
    nuttall_series_truncated,
    nuttall_truncation_bound,
    nuttall_upper_bound_1f1,
)
from nuttq.special import upper_inc_gamma


def rel(x, y):
    return abs(x - y) / abs(y)


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

    def test_terms_range(self):
        p = NuttallParams(2.0, 1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            nuttall_series_truncated(p, 0)
        with pytest.raises(DomainError):
            nuttall_series_truncated(p, 501)


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
        for p in (NuttallParams(2.0, 1.0, 1.0, 2.0),
                  NuttallParams(3.0, 0.5, 2.0, 1.0)):
            exact = nuttall_series_adaptive(p, tol=1e-14).value
            res = [abs(exact - nuttall_series_truncated(p, t).value)
                   for t in range(5, 26)]
            for r0, r1 in zip(res, res[1:]):
                assert r1 <= r0 * (1.0 + 1e-12) + 1e-16

    def test_weighted_variant_is_coarser(self, golden_entries):
        # the gamma-weighted partial sum tracks the function only loosely;
        # keep its behaviour pinned so the flag stays honest
        want = golden_value(golden_entries, "nuttall", 2.0, 1.0, 1.0, 2.0)
        w = nuttall_series_truncated(NuttallParams(2.0, 1.0, 1.0, 2.0), 20,
                                     polynomial_weights=True)
        assert 1e-5 < rel(w.value, want) < 1e-2

    def test_adaptive_tol_floor(self):
        with pytest.raises(DomainError):
            nuttall_series_adaptive(NuttallParams(2.0, 1.0, 1.0, 1.0), tol=1e-15)

    def test_adaptive_term_cap(self):
        with pytest.raises(NonConvergenceError) as exc:
            nuttall_series_adaptive(NuttallParams(2.0, 1.0, 3.0, 1.0),
                                    tol=1e-12, max_terms=5)
        assert exc.value.terms == 5
        assert exc.value.partial_value > 0.0


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
        for (m, n, a) in [(2.0, 1.0, 1.0), (3.0, 1.0, 2.0), (1.5, 0.5, 0.5)]:
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
        with pytest.raises(DomainError):
            nuttall_upper_bound_1f1(0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            nuttall_upper_bound_1f1(2.0, 1.0, -1.0)

    def test_overflow_raises(self):
        # 1F1(2; 2; 800) = e^800 overflows, and inf * e^-800 would be nan
        with pytest.raises(TermOverflowError):
            nuttall_upper_bound_1f1(2.0, 1.0, 40.0)


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
