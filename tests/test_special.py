"""Kernel checks: incomplete gamma, the half-integer gamma ladders,
the scaled Bessel I, Kummer 1F1, order rounding.

Reference literals were computed with 50-digit arbitrary-precision
arithmetic and frozen here.
"""

import math
import random
import sys
import time

import pytest
from hypothesis import given, strategies as st

from nuttq.errors import DomainError, TermOverflowError
from nuttq.special import (
    _half_gamma_lower,
    _half_gamma_upper,
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
        for a in (0.5, 3.0, 510.5):
            assert lower_inc_gamma(a, 0.0) == 0.0
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
        # the message and the log-domain value carried by each kernel
        for kernel, x, message, log_term in (
                (lower_inc_gamma, 600.0, "lower incomplete gamma overflows "
                 "at a=510.5, x=600.0", 2670.4682437957267),
                (upper_inc_gamma, 200.0, "upper incomplete gamma overflows "
                 "at a=510.5, x=200.0", 2670.468326950246)):
            with pytest.raises(TermOverflowError) as exc:
                kernel(510.5, x)
            assert str(exc.value) == message
            assert exc.value.log_term == log_term

    def test_invalid_order(self):
        with pytest.raises(DomainError):
            lower_inc_gamma(0.0, 1.0)
        with pytest.raises(DomainError):
            upper_inc_gamma(-1.0, 1.0)
        # non-finite input is refused at once, not summed to the step cap
        for kernel in (lower_inc_gamma, upper_inc_gamma, lower_inc_gamma_log,
                       upper_inc_gamma_log):
            with pytest.raises(DomainError, match="^x must be finite, got inf$"):
                kernel(2.5, math.inf)
            with pytest.raises(DomainError, match="^a must be finite, got inf$"):
                kernel(math.inf, 1.0)
            with pytest.raises(DomainError, match="order must be positive"):
                kernel(math.nan, 1.0)
            with pytest.raises(DomainError, match="argument must be >= 0"):
                kernel(2.5, math.nan)

    def test_huge_argument_refused_at_once(self):
        # the continued fraction stalls from x ~ 2^54 on; refusing at once
        # spares a run to its 500,000-step cap (0.4 s at x = 1e308)
        start = time.perf_counter()
        for kernel in (lower_inc_gamma, upper_inc_gamma, lower_inc_gamma_log,
                       upper_inc_gamma_log):
            for a, x in ((2.5, 1e308), (100.0, 1e18), (2.5, 2.0 ** 53 * 1.5)):
                with pytest.raises(DomainError) as exc:
                    kernel(a, x)
                assert str(exc.value) == (
                    f"incomplete gamma argument must be <= 2^53, got x={x}")
        assert time.perf_counter() - start < 0.1
        # 2^53 itself is still summed
        assert upper_inc_gamma_log(2.5, 2.0 ** 53) == -9007199254740937.0
        assert lower_inc_gamma_log(2.5, 2.0 ** 53) == math.lgamma(2.5)

    def test_array_order_refused_at_once(self):
        # a one-element array order passes every comparison of the argument
        # checks, and the lower series would run to its 500,000-term cap on
        # it (3 s) before failing
        np = pytest.importorskip("numpy")
        for kernel in (lower_inc_gamma, upper_inc_gamma, lower_inc_gamma_log,
                       upper_inc_gamma_log):
            for x in (1.0, 10.0):
                start = time.perf_counter()
                with pytest.raises(TypeError) as exc:
                    kernel(np.array([2.5]), x)
                assert time.perf_counter() - start < 0.1
                assert str(exc.value) == (
                    "incomplete gamma order must be a scalar, got a=array([2.5])")
            # scalar orders that are not floats keep the float order's value
            for order in (np.float64(2.5), np.array(2.5)):
                assert kernel(order, 1.0) == kernel(2.5, 1.0)
            assert kernel(3, 1.0) == kernel(3.0, 1.0)


class TestHalfIntegerLadder:
    """The gamma lists of both closed forms at every order (l+1)/2, l < 22
    (the box's largest list), against mpmath on seeded x in [0, 200]; the
    box's largest argument is (B + r)^2 = 196.  The worst error measured
    over 1,000 such x was 109 eps, at Gamma(1/2, x) near x = 200, where
    erfc(sqrt(x)) carries the rounding of sqrt(x) times 2x; the kernel's
    worst on the same draws was 154 eps."""

    COUNT = 22
    ULPS = 256

    def test_lists_match_mpmath(self):
        mp = pytest.importorskip("mpmath")
        eps = sys.float_info.epsilon
        rng = random.Random(21)
        calls = []

        def kernel(s, x):
            calls.append((s, x))
            return lower_inc_gamma(s, x)

        worst = 0.0
        with mp.workdps(40):
            for x in [0.0, 200.0] + [200.0 * rng.random() for _ in range(40)]:
                del calls[:]
                upper = _half_gamma_upper(self.COUNT, x)
                lower = _half_gamma_lower(self.COUNT, x, kernel)
                # one kernel call at most at the top of each parity ladder
                assert len(calls) <= 2 and len(set(calls)) == len(calls)
                assert len(upper) == len(lower) == self.COUNT
                for l in range(self.COUNT):
                    s = 0.5 * (l + 1)
                    if x == 0.0:
                        assert upper[l] == math.gamma(s) and lower[l] == 0.0
                        continue
                    worst = max(worst, rel(upper[l], mp.gammainc(s, x)),
                                rel(lower[l], mp.gammainc(s, 0, x)))
        assert worst <= self.ULPS * eps

    def test_short_lists(self):
        # count 0 and 1 cut the two ladders' starts; past every order + 1
        # the lower list needs no kernel call at all
        for x in (0.0, 0.3, 7.0):
            assert _half_gamma_upper(0, x) == []
            assert _half_gamma_lower(0, x, None) == []
            assert _half_gamma_upper(1, x) == [math.sqrt(math.pi)
                                               * math.erfc(math.sqrt(x))]
        assert _half_gamma_lower(4, 5.0, None) == [
            math.gamma(0.5 * (l + 1)) - g
            for l, g in enumerate(_half_gamma_upper(4, 5.0))]


class TestBesselI:
    # the kernel is e^-x I_nu(x); e^x times it is held to I_nu(x)

    def test_frozen_values(self):
        assert rel(bessel_i_scaled(2.0, 3.0) * math.exp(3.0),
                   2.2452124409299512) < 1e-14
        assert rel(bessel_i_scaled(0.0, 1.0) * math.exp(1.0),
                   1.2660658777520083) < 1e-14
        assert rel(bessel_i_scaled(7.5, 0.3) * math.exp(0.3),
                   4.7275900483916623e-11) < 1e-13

    def test_half_order_closed_form(self):
        # I_{1/2}(x) = sqrt(2/(pi x)) sinh x, checked across [0.1, 20]
        for k in range(40):
            x = 0.1 + k * (19.9 / 39)
            want = math.sqrt(2.0 / (math.pi * x)) * math.sinh(x)
            assert rel(bessel_i_scaled(0.5, x) * math.exp(x), want) < 1e-12

    def test_scaled_consistency(self):
        # I_1(x) from 50-digit arithmetic
        for x, want in ((0.5, 0.2578943053908963), (2.0, 1.590636854637329),
                        (10.0, 2670.9883037012546)):
            assert rel(bessel_i_scaled(1.0, x) * math.exp(x), want) < 1e-13

    def test_scaled_large_argument(self):
        # raw I_n overflows near x ~ 715; the scaled form must not
        v = bessel_i_scaled(0.0, 800.0)
        assert 0.0 < v < 1.0
        assert rel(v, 1.0 / math.sqrt(2 * math.pi * 800.0)) < 1e-2

    def test_zero_argument(self):
        assert bessel_i_scaled(0.0, 0.0) == 1.0
        assert bessel_i_scaled(1.5, 0.0) == 0.0

    def test_negative_order_rejected(self):
        # with a nan order or an infinite argument the series never stops
        for nu, x, message in (
                (-0.5, 1.0, "Bessel order must be >= 0, got nu=-0.5"),
                (1.0, -1.0, "Bessel argument must be >= 0, got x=-1.0"),
                (1.0, math.nan, "Bessel argument must be >= 0, got x=nan"),
                (math.nan, 1.0, "nu must be finite, got nan"),
                (math.inf, 1.0, "nu must be finite, got inf"),
                (1.0, math.inf, "x must be finite, got inf")):
            with pytest.raises(DomainError) as exc:
                bessel_i_scaled(nu, x)
            assert str(exc.value) == message

    def test_huge_argument_refused_at_once(self):
        # the series peaks near term x/2, so past x ~ 9.9e5 it cannot end
        # within its 500,000-term cap; refusing at once spares the run
        # there (0.24 s at x = 1e150)
        start = time.perf_counter()
        for x in (1e150, 1.2e6, 900000.5):
            with pytest.raises(DomainError) as exc:
                bessel_i_scaled(0.0, x)
            assert str(exc.value) == (
                f"Bessel argument must be <= 900000, got x={x}")
        assert time.perf_counter() - start < 0.1
        # the limit itself is still summed
        assert rel(bessel_i_scaled(2.5, 9e5),
                   1.0 / math.sqrt(2 * math.pi * 9e5)) < 1e-5


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
