"""Kernel checks: incomplete gamma, Bessel I, Kummer 1F1, order rounding.

Reference literals were computed with 50-digit arbitrary-precision
arithmetic and frozen here.
"""

import math

import pytest
from hypothesis import given, strategies as st

from nuttq.errors import DomainError, TermOverflowError
from nuttq.special import (
    bessel_i,
    bessel_i_scaled,
    ceil_half,
    classify_order,
    floor_half,
    kummer_1f1,
    lower_inc_gamma,
    lower_inc_gamma_log,
    sgn,
    upper_inc_gamma,
    upper_inc_gamma_log,
)


def rel(x, y):
    return abs(x - y) / abs(y)


class TestIncompleteGamma:
    def test_lower_frozen(self):
        assert rel(lower_inc_gamma(2.5, 4.0), 1.1216500583675565) < 1e-14

    def test_upper_frozen(self):
        assert rel(upper_inc_gamma(2.5, 4.0), 0.20769032981158048) < 1e-14

    def test_complement_at_example_point(self):
        got = lower_inc_gamma(2.5, 4.0)
        want = math.gamma(2.5) - upper_inc_gamma(2.5, 4.0)
        assert rel(got, want) < 1e-13

    def test_log_upper_large_order(self):
        # genuine partial tail: x=600 against order 510.5
        assert abs(upper_inc_gamma_log(510.5, 600.0) - 2661.0734753728632) < 1e-10

    def test_log_lower_large_order(self):
        assert abs(lower_inc_gamma_log(510.5, 450.0) - 2664.5711556838650) < 1e-10

    def test_zero_x(self):
        assert lower_inc_gamma(3.0, 0.0) == 0.0
        assert rel(upper_inc_gamma(3.0, 0.0), math.gamma(3.0)) < 1e-15

    def test_complement_grid(self):
        # 20x20 box a in [0.1, 20], x in [0, 40]
        for i in range(20):
            a = 0.1 + i * (19.9 / 19)
            ga = math.gamma(a)
            for j in range(20):
                x = j * (40.0 / 19)
                s = lower_inc_gamma(a, x) + upper_inc_gamma(a, x)
                assert abs(s - ga) <= 1e-12 * ga

    def test_recurrence_grid(self):
        # Gamma(a+1,x) = a*Gamma(a,x) + x^a e^-x
        for i in range(20):
            a = 0.1 + i * (19.9 / 19)
            for j in range(20):
                x = j * (40.0 / 19)
                lhs = upper_inc_gamma(a + 1.0, x)
                rhs = a * upper_inc_gamma(a, x) + x ** a * math.exp(-x)
                assert rel(lhs, rhs) < 1e-12

    def test_linear_overflow_raises(self):
        with pytest.raises(TermOverflowError):
            upper_inc_gamma(510.5, 200.0)

    def test_invalid_order(self):
        with pytest.raises(DomainError):
            lower_inc_gamma(0.0, 1.0)
        with pytest.raises(DomainError):
            upper_inc_gamma(-1.0, 1.0)


class TestBesselI:
    def test_frozen_values(self):
        assert rel(bessel_i(2.0, 3.0), 2.2452124409299512) < 1e-14
        assert rel(bessel_i(0.0, 1.0), 1.2660658777520083) < 1e-14
        assert rel(bessel_i(7.5, 0.3), 4.7275900483916623e-11) < 1e-13

    def test_half_order_closed_form(self):
        # I_{1/2}(x) = sqrt(2/(pi x)) sinh x, checked across [0.1, 20]
        for k in range(40):
            x = 0.1 + k * (19.9 / 39)
            want = math.sqrt(2.0 / (math.pi * x)) * math.sinh(x)
            assert rel(bessel_i(0.5, x), want) < 1e-12

    def test_scaled_consistency(self):
        for x in (0.5, 2.0, 10.0):
            assert rel(bessel_i_scaled(1.0, x) * math.exp(x), bessel_i(1.0, x)) < 1e-13

    def test_scaled_large_argument(self):
        # raw I_n overflows near x ~ 715; the scaled form must not
        v = bessel_i_scaled(0.0, 800.0)
        assert 0.0 < v < 1.0
        assert rel(v, 1.0 / math.sqrt(2 * math.pi * 800.0)) < 1e-2

    def test_zero_argument(self):
        assert bessel_i(0.0, 0.0) == 1.0
        assert bessel_i(1.5, 0.0) == 0.0

    def test_negative_order_rejected(self):
        with pytest.raises(DomainError):
            bessel_i(-0.5, 1.0)


class TestKummer1F1:
    def test_frozen_values(self):
        assert rel(kummer_1f1(2.5, 3.5, 4.0), 23.255444672967347) < 1e-13
        assert rel(kummer_1f1(0.5, 1.5, 9.0), 481.51504096423805) < 1e-13

    def test_equal_parameters_is_exp(self):
        for a in (0.3, 1.0, 2.5, 7.0):
            for x in (0.1, 1.0, 5.0, 20.0, 60.0):
                assert rel(kummer_1f1(a, a, x), math.exp(x)) < 1e-12

    def test_elementary_identity(self):
        # 1F1(1,2,x) = (e^x - 1)/x
        for x in (0.25, 1.0, 4.0, 12.0):
            assert rel(kummer_1f1(1.0, 2.0, x), math.expm1(x) / x) < 1e-13

    def test_pole_rejected(self):
        with pytest.raises(DomainError):
            kummer_1f1(1.0, 0.0, 2.0)
        with pytest.raises(DomainError):
            kummer_1f1(1.0, -3.0, 2.0)

    def test_negative_argument_rejected(self):
        with pytest.raises(DomainError):
            kummer_1f1(1.0, 2.0, -1.0)

    def test_nan_argument_rejected(self):
        # a nan x would run the series to its term cap
        for args in [(math.nan, 2.0, 1.0), (1.0, math.nan, 1.0), (1.0, 2.0, math.nan)]:
            with pytest.raises(DomainError):
                kummer_1f1(*args)

    def test_overflow_raises(self):
        # the sum overflowing with a finite last term, and the term itself
        for args in [(2.0, 2.0, 800.0), (1.5, 2.0, 1600.0)]:
            with pytest.raises(TermOverflowError):
                kummer_1f1(*args)


class TestOrderRounding:
    def test_ceil_half_frozen(self):
        assert ceil_half(1.2) == 1.5
        assert ceil_half(1.7) == 2.5
        assert ceil_half(0.5) == 0.5

    def test_floor_half_frozen(self):
        assert floor_half(1.5) == 1.5
        assert floor_half(1.7) == 1.5
        assert floor_half(1.2) == 0.5

    def test_sgn(self):
        assert sgn(3.2) == 1.0
        assert sgn(-0.1) == -1.0
        assert sgn(0.0) == 0.0

    def test_classify(self):
        assert classify_order(3.0) == "integer"
        assert classify_order(2.5) == "half-odd"
        assert classify_order(2.50000000001) == "half-odd"
        assert classify_order(1.7) == "general"

    @given(st.floats(min_value=-50.0, max_value=50.0,
                     allow_nan=False, allow_infinity=False))
    def test_rounders_bracket(self, x):
        c, f = ceil_half(x), floor_half(x)
        assert c - f in (0.0, 1.0)
        if classify_order(x) != "half-odd":
            assert f < x < c
