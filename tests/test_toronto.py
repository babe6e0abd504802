"""Incomplete Toronto function: series, closed form, bounds, Marcum link.

Standalone literals frozen from 50-digit arbitrary-precision evaluation of
the defining finite integral.
"""

import math

import pytest

from nuttq.errors import DomainError, TermOverflowError
from nuttq.nuttall import marcum_q
from nuttq.special import lower_inc_gamma
from nuttq.toronto import (
    TorontoParams,
    toronto_closed_form_half,
    toronto_marcum_residual,
    toronto_series_adaptive,
    toronto_series_truncated,
    toronto_t,
    toronto_truncation_bound,
    toronto_upper_bound_1f1,
)


def rel(x, y):
    return abs(x - y) / abs(y)


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

    def test_weighted_variant_is_coarser(self, golden_entries):
        want = golden_value(golden_entries, 2.0, 1.0, 1.0, 3.0)
        w = toronto_series_truncated(TorontoParams(2.0, 1.0, 1.0, 3.0), 20,
                                     polynomial_weights=True)
        assert 1e-5 < rel(w.value, want) < 1e-1


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


class TestMarcumLink:
    def test_residuals_small(self):
        assert toronto_marcum_residual(1.0, 1.0, 2.0) < 1e-9
        assert toronto_marcum_residual(3.0, 0.5, 1.0) < 1e-9

    def test_residual_grid(self):
        for m in (1.0, 3.0):
            for r in (0.5, 1.0, 2.0):
                for big_b in (1.0, 2.0):
                    assert toronto_marcum_residual(m, r, big_b) < 1e-9
