"""Quadrature oracle: parameter box, golden file round-trip, scheme
cross-checks, and limit behaviour of the defining integrals."""

import itertools
import json
import math
import random

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ive

from identities import toronto_marcum_residual
from nuttq import oracle
from nuttq.box import check_box
from nuttq.cli import main
from nuttq.errors import DomainError, TermOverflowError, ToleranceNotMetError
from nuttq.nuttall import NuttallParams, marcum_q, nuttall_series_adaptive
from nuttq.oracle import (
    GOLDEN_TOL,
    _nuttall_tail_log,
    _quad_tanh_sinh,
    golden_path,
    oracle_marcum,
    oracle_nuttall,
    oracle_toronto,
    read_golden,
    write_golden,
)
from nuttq.toronto import (
    TorontoParams,
    toronto_closed_form_half,
    toronto_series_adaptive,
    toronto_upper_bound_1f1,
)

EPS = 2.0 ** -52


class TestParameterBox:
    @pytest.mark.parametrize("kwargs", [
        dict(m=11.0, n=1.0, a=1.0, b=1.0),
        dict(m=2.0, n=-0.5, a=1.0, b=1.0),
        dict(m=2.0, n=1.0, a=0.0, b=1.0),
        dict(m=2.0, n=1.0, a=6.5, b=1.0),
        dict(m=2.0, n=1.0, a=1.0, b=9.0),
        dict(m=10.0 + 1e-9, n=1.0, a=1.0, b=1.0),
        dict(m=2.0, n=10.0 + 1e-9, a=1.0, b=1.0),
        dict(m=2.0, n=1.0, a=6.0 + 1e-9, b=1.0),
        dict(m=2.0, n=1.0, a=1.0, b=8.0 + 1e-9),
    ])
    def test_nuttall_out_of_box(self, kwargs):
        with pytest.raises(DomainError, match="must lie in"):
            oracle_nuttall(**kwargs)

    def test_tol_out_of_box(self):
        with pytest.raises(DomainError):
            oracle_nuttall(2.0, 1.0, 1.0, 1.0, tol=1e-15)
        with pytest.raises(DomainError):
            oracle_nuttall(2.0, 1.0, 1.0, 1.0, tol=1e-5)

    def test_toronto_out_of_box(self):
        with pytest.raises(DomainError):
            oracle_toronto(2.0, 1.0, 0.0, 2.0)
        with pytest.raises(DomainError):
            oracle_toronto(2.0, 1.0, 1.0, 8.5)
        with pytest.raises(DomainError, match="B must be > 0"):
            oracle_toronto(2.0, 1.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            oracle_toronto(2.0, 1.0, 6.0 + 1e-9, 2.0)
        with pytest.raises(DomainError):
            oracle_toronto(2.0, 1.0, 1.0, 8.0 + 1e-9)

    @pytest.mark.parametrize("call, args, prefix", [
        (marcum_q, (0.5, 1.0, 1.0), "Marcum order must be >= 1"),
        (oracle_marcum, (0.5, 1.0, 1.0), "Marcum order must be >= 1"),
        (oracle_toronto, (0.0, 2.0, 1.0, 1.0),
         "need m - n > -1 for integrability"),
        (oracle._evaluate_case, ("bogus", 2.0, 1.0, 1.0, 1.0, 1e-10),
         "unknown golden kind 'bogus'"),
        (toronto_closed_form_half, (0.0, 0.5, 1.0, 1.0),
         "need m >= 1 and n >= 0.5"),
        (toronto_closed_form_half, (2.0, -0.5, 1.0, 1.0),
         "need m >= 1 and n >= 0.5"),
        (toronto_closed_form_half, (2.0, 0.5, 1.0, 0.0),
         "need r > 0 and B > 0"),
        (toronto_upper_bound_1f1, (0.0, 2.0, 1.0), "need m - n > -1"),
        (toronto_marcum_residual, (0.5, 1.0, 1.0),
         "identity needs (m+1)/2 >= 1"),
        (oracle_marcum, (2.5, -1.0, 1.0), "scale parameter must lie in"),
        (oracle_marcum, (2.0, math.nan, 1.0), "scale parameter must lie in"),
    ])
    def test_domain_refusals(self, call, args, prefix):
        with pytest.raises(DomainError) as exc:
            call(*args)
        assert str(exc.value).startswith(prefix)

    def test_exact_corners_are_inside(self):
        check_box(10.0, 10.0, 6.0, 8.0)
        for argv in (["nuttall", "--n", "10", "--a", "6", "--b", "8"],
                     ["toronto", "--n", "10", "--r", "6", "--B", "8"],
                     ["marcum", "--a", "6", "--b", "8"]):
            assert main(["eval", *argv, "--m", "10"]) == 0, argv
        oracle_toronto(10.0, 10.0, 6.0, 8.0)
        oracle_marcum(10.0, 6.0, 8.0)
        # about 2.2e6, accepted within 64 ulps where the absolute tol is
        # below one
        oracle_nuttall(10.0, 10.0, 6.0, 8.0)

    def test_subnormal_a_n_is_refused(self):
        # a^(m-1) = 1e-320 has lost digits, and its reciprocal overflows
        with pytest.raises(TermOverflowError, match=(
                r"^normalized oracle value overflows: a\^n underflows to 0 "
                r"at a=1e-160, n=2.0$")):
            oracle_marcum(3.0, 1e-160, 1.0)

    @pytest.mark.parametrize("scheme", ["adaptive", "gauss"])
    def test_toronto_prefactor_overflow_is_refused(self, scheme):
        # 2 r^(n-m+1) at m = 10, n = 0: past the double range at r = 1e-40
        # (the power) and at 6e-35 (only the product by 2); finite at 1e-34
        for r in (1e-40, 6e-35):
            with pytest.raises(TermOverflowError, match=(
                    r"^oracle 2 r\^\(n-m\+1\) overflows at "
                    rf"m=10.0, n=0.0, r={r}$")) as exc:
                oracle_toronto(10.0, 0.0, r, 1.0, scheme=scheme)
            assert exc.value.log_term == math.log(2.0) - 9.0 * math.log(r)
            assert exc.value.log_term > 709.0
        value = oracle_toronto(10.0, 0.0, 1e-34, 1.0, scheme=scheme).value
        assert value == pytest.approx(7.872972902696838e304, rel=1e-14)

    def test_unknown_scheme(self):
        with pytest.raises(DomainError):
            oracle_nuttall(2.0, 1.0, 1.0, 1.0, scheme="simpson")


class TestOracleValues:
    def test_frozen_spot_values(self):
        assert abs(oracle_nuttall(1.0, 0.0, 1.0, 1.0, tol=1e-13).value
                   - 0.73287980379682016) < 2e-13
        assert abs(oracle_toronto(2.0, 1.0, 1.0, 3.0, tol=1e-13).value
                   - 0.70634331254118854) < 2e-13
        assert abs(oracle_marcum(2.0, 1.0, 1.0, tol=1e-13).value
                   - 0.94079021914652861) < 2e-13

    def test_error_fields_within_request(self):
        ov = oracle_nuttall(2.0, 1.0, 1.0, 1.0, tol=1e-10)
        assert ov.abs_err_est <= 1e-10
        assert ov.tail_bound <= 1e-10
        assert ov.subdivisions >= 1

    def test_nuttall_tail_majorant_covers_the_dropped_tail(self):
        # the log of the integral of x^m e^(-(x-a)^2/2) ive(n, ax) over
        # [upper, inf), by quad with the Gaussian-polynomial factor at upper
        # divided out, so that it stays far from underflow
        for m, n, a, d in itertools.product((0.0, 1.0, 4.5, 10.0),
                                            (0.0, 2.5, 10.0),
                                            (0.05, 1.0, 3.0, 6.0), range(2, 11)):
            upper = a + math.sqrt(2.0 * m) + d
            log_peak = m * math.log(upper) - 0.5 * (upper - a) ** 2

            def f(x):
                return math.exp(m * math.log(x) - 0.5 * (x - a) ** 2
                                - log_peak) * ive(n, a * x)

            scaled, err = quad(f, upper, math.inf, epsabs=0.0, epsrel=1e-10,
                               limit=200)
            assert err <= 1e-9 * scaled
            log_tail = log_peak + math.log(scaled)
            assert log_tail > math.log(1e-290)
            assert _nuttall_tail_log(m, a, upper) >= log_tail, (m, n, a, d)

    def test_nuttall_tail_majorant_refuses_an_upper_inside_its_validity(self):
        # x (x - a) >= 2m fails at upper = a + 1 for m = 10, a = 1
        with pytest.raises(ToleranceNotMetError, match="tail majorant invalid"):
            _nuttall_tail_log(10.0, 1.0, 2.0)

    @pytest.mark.parametrize("oracle, args", [
        # QUADPACK accepts one 21-point panel at both points, with an
        # estimate 7e6 and 8 times short of the true error
        (oracle_nuttall, (6.0, 8.5, 0.09278083110782154, 4.95838826993411)),
        (oracle_toronto, (2.5, 0.5, 3.2718703094305113, 2.6270719808659253)),
    ])
    def test_single_panel_estimate_covers_the_error(self, oracle, args):
        ov = oracle(*args)
        gauss = oracle(*args, scheme="gauss")
        assert abs(ov.value - gauss.value) <= ov.abs_err_est

    def test_b_monotone_ladders(self):
        # integrand is positive, so the tail integral falls as b rises
        for (m, n, a) in [(2.0, 1.0, 1.0), (3.0, 0.5, 2.0)]:
            vals = [oracle_nuttall(m, n, a, b, tol=1e-11).value
                    for b in (0.0, 0.5, 1.0, 2.0, 4.0)]
            assert all(x > y for x, y in zip(vals, vals[1:]))

    def test_marcum_range_and_b0(self):
        for m in (1.0, 2.0, 3.5):
            for a in (0.5, 2.0):
                assert abs(oracle_marcum(m, a, 0.0, tol=1e-12).value - 1.0) < 1e-11
                v = oracle_marcum(m, a, 2.5, tol=1e-12).value
                assert 0.0 < v < 1.0

    def test_marcum_small_a_limit(self):
        # Q_1(a, b) -> exp(-b^2/2) as a -> 0
        v = oracle_marcum(1.0, 1e-8, 2.0, tol=1e-12).value
        assert abs(v - math.exp(-2.0)) < 1e-8

    def test_nuttall_b0_reduction(self):
        # Q_{m,m-1}(a, 0) = a^(m-1)
        for m, a in [(2.0, 1.5), (3.0, 0.5)]:
            v = oracle_nuttall(m, m - 1.0, a, 0.0, tol=1e-12).value
            assert abs(v - a ** (m - 1.0)) < 1e-10

    def test_toronto_marcum_identity(self):
        # T_B(m, (m-1)/2, r) + Q_{(m+1)/2}(r sqrt2, B sqrt2) = 1
        tol = 1e-12
        for m in (1.0, 3.0):
            for r in (0.5, 1.0, 2.0):
                for big_b in (0.5, 1.0, 2.0):
                    t = oracle_toronto(m, (m - 1.0) / 2.0, r, big_b, tol=tol).value
                    q = oracle_marcum((m + 1.0) / 2.0, r * math.sqrt(2.0),
                                      big_b * math.sqrt(2.0), tol=tol).value
                    assert abs(t + q - 1.0) < 4.0 * tol


class TestGaussScheme:
    """The second scheme, still named "gauss", is nested tanh-sinh levels."""

    @staticmethod
    def counting(monkeypatch):
        """The x arrays the second scheme hands to its Bessel kernel, one per
        integrand call."""
        calls = []
        kernel = oracle._ive_scaled

        def counting_kernel(order, x, a):
            calls.append(x)
            return kernel(order, x, a)

        monkeypatch.setattr(oracle, "_ive_scaled", counting_kernel)
        return calls

    @staticmethod
    def per_level_nodes(h, first):
        """A level's nodes built on their own, as (right, d, w): every k on
        the first level, h = 1/8, and odd k on the finer ones."""
        last = round(3.25 / h)
        t = h * (np.arange(-last, last + 1) if first
                 else np.arange(1 - last, last, 2))
        u = 0.5 * math.pi * np.sinh(t)
        return (t > 0.0, 1.0 / (1.0 + np.exp(2.0 * np.abs(u))),
                0.5 * math.pi * np.cosh(t) / np.cosh(u) ** 2)

    def test_strided_levels_equal_levels_built_alone(self):
        # each level, a strided view of the h = 1/256 table, holds the bits
        # of the level built on its own, and the six levels partition the
        # table: [0::32] for h = 1/8 and [2^(6-j)::2^(7-j)] for
        # h = 2^-(j+2), j = 2..6
        table = oracle._TS_NODES
        assert table[0].size == 1665
        for j, level in enumerate(oracle._TS_LEVELS, 1):
            alone = self.per_level_nodes(2.0 ** -(j + 2), j == 1)
            for strided, want in zip((column[level] for column in table),
                                     alone):
                assert strided.tobytes() == want.tobytes(), j
        index = np.arange(1665)
        assert np.array_equal(np.sort(np.concatenate(
            [index[level] for level in oracle._TS_LEVELS])), index)

    def test_levels_nest(self, monkeypatch):
        # the first call evaluates the h = 1/64 grid, which holds the first
        # four levels; the scheme reports the node count of the levels it
        # compared, 52 * 2^L + 1 after L halvings of h = 1/8
        sizes = []

        def f(x):
            sizes.append(x.size)
            return 1.0 / (1e-2 + (x - 0.3) ** 2)

        value, err, nodes, _ = _quad_tanh_sinh(f, 0.0, 1.0, 1e-10)
        assert sizes == [417]
        assert nodes == 52 * 2 ** 3 + 1
        exact = 10.0 * (math.atan(7.0) + math.atan(3.0))
        assert abs(value - exact) <= err
        calls = self.counting(monkeypatch)
        ov = oracle_nuttall(9.0, 7.946609415622109, 2.508233277508591,
                            5.957047869677489, scheme="gauss")
        assert sum(x.size for x in calls) == max(ov.subdivisions, 417)
        assert ov.subdivisions in {52 * 2 ** level + 1 for level in range(6)}

    def test_call_count_follows_the_accepting_level(self, monkeypatch):
        # one call of 417 nodes for a value the h = 1/64 grid accepts (105,
        # 209 or 417 nodes compared), one more per finer level: at most 3
        calls = self.counting(monkeypatch)
        for args, tol, nodes in (
                ((3.5, 9.859657406200126, 0.42683455529013425,
                  0.24600880845346218), 1e-10, 209),
                ((2.0, 3.3, 5.0, 0.0), 1e-14, 417),
                ((2.210052415685765, 4.826134880079131, 5.701758822019991,
                  0.4198386589114511), 1e-14, 833)):
            calls.clear()
            ov = oracle_nuttall(*args, tol=tol, scheme="gauss")
            assert ov.subdivisions == nodes
            want = [417] if nodes <= 417 else [417, 416]
            assert [x.size for x in calls] == want, args
        calls.clear()
        oracle_toronto(2.0, 1.0, 1.0, 3.0, scheme="gauss")
        assert [x.size for x in calls] == [417]

    def test_first_comparison_is_at_h_one_eighth(self, monkeypatch):
        # a smooth integrand is accepted at the first comparison, h = 1/8
        # against h = 1/16: 53 + 52 nodes
        value, err, nodes, _ = _quad_tanh_sinh(np.exp, 0.0, 1.0, 1e-10)
        assert nodes == 105
        assert abs(value - math.expm1(1.0)) <= err <= 64 * EPS * value
        # compared from h = 1/2, two coarse levels both missed this
        # integrand's narrow peak and agreed on 1.40e-11 against 6.63e-9
        args = (3.5, 9.859657406200126, 0.42683455529013425,
                0.24600880845346218)
        calls = self.counting(monkeypatch)
        gauss = oracle_nuttall(*args, scheme="gauss")
        assert [x.size for x in calls] == [417]
        assert gauss.subdivisions >= 105
        monkeypatch.undo()
        adaptive = oracle_nuttall(*args)
        assert abs(gauss.value - adaptive.value) <= (
            gauss.abs_err_est + adaptive.abs_err_est)
        assert gauss.value == pytest.approx(6.63e-9, rel=1e-3)

    def test_nuttall_reproduction_converges(self):
        # a value near 1e6, where the Gauss-Legendre levels once differed
        # more at each doubling; the adaptive scheme referees it at the
        # default tol, which the rounding floor makes reachable there
        args = (9.747297662154839, 7.0, 4.61520624372118, 2.275415732502098)
        gauss = oracle_nuttall(*args, scheme="gauss")
        assert gauss.subdivisions <= 417
        adaptive = oracle_nuttall(*args)
        assert abs(gauss.value - adaptive.value) <= (
            gauss.abs_err_est + 64 * EPS * abs(adaptive.value))

    def test_endpoint_singularity_is_accepted_within_its_promise(
            self, monkeypatch):
        # m - n = -0.496: the integrand's t^(m-n) factor is singular at 0,
        # where Gauss-Legendre converged only algebraically and refused
        # after 3,840 nodes; tanh-sinh converges exponentially there
        calls = self.counting(monkeypatch)
        args = (0.5043655403318925, 1.0, 1.0776352292261235, 4.459215224518907)
        gauss = oracle_toronto(*args, scheme="gauss")
        assert gauss.subdivisions <= 209
        assert [x.size for x in calls] == [417]
        monkeypatch.undo()
        adaptive = oracle_toronto(*args, tol=1e-13)
        assert abs(gauss.value - adaptive.value) <= (
            gauss.abs_err_est + adaptive.abs_err_est)

    # the node count of each level's new nodes, h = 1/8 to 1/256
    LEVEL_SIZES = (53, 52, 104, 208, 416, 832)

    @classmethod
    def level_sizes(cls, x):
        """An integrand that is, at each node, the node count of the level
        that adds it: the h = 1/64 grid holds levels 1 to 4, at [0::8],
        [4::8], [2::4] and [1::2]; levels 5 and 6 come a call each."""
        if x.size != 417:
            return np.full_like(x, x.size)
        i = np.arange(x.size)
        return np.select([i % 8 == 0, i % 8 == 4, i % 2 == 0],
                         cls.LEVEL_SIZES[:3], cls.LEVEL_SIZES[3])

    def test_exhaustion_carries_the_last_difference(self):
        # the new nodes of each level carry half the rule's weight, so each
        # level is half the one before plus half its new node count, and
        # no two levels agree
        with pytest.raises(ToleranceNotMetError, match="exhausted") as err:
            _quad_tanh_sinh(self.level_sizes, 0.0, 1.0, 1e-10)
        prev, value = None, float(self.LEVEL_SIZES[0])
        for size in self.LEVEL_SIZES[1:]:
            prev, value = value, 0.5 * (value + size)
        assert err.value.value == pytest.approx(value, rel=1e-14)
        assert err.value.err_est == pytest.approx(value - prev, rel=1e-13)

    def test_exhaustion_calls_three_stages_in_increasing_x(self):
        # a refusal at h = 1/256 calls the integrand three times, each time
        # on nondecreasing x, and on every node of the table once
        calls = []

        def f(x):
            calls.append(x)
            return self.level_sizes(x)

        with pytest.raises(ToleranceNotMetError, match=r"\(1665 nodes\)"):
            _quad_tanh_sinh(f, 0.25, 3.5, 1e-10)
        assert [x.size for x in calls] == [417, 416, 832]
        for x in calls:
            assert np.all(np.diff(x) >= 0.0)
        right, d, _ = oracle._TS_NODES
        table = np.where(right, 3.5 - 3.25 * d, 0.25 + 3.25 * d)
        assert np.array_equal(np.sort(np.concatenate(calls)), table)

    @pytest.mark.parametrize("m, n, r, big_b", [
        (0.01, 1.0, 1.0, 2.0),     # t^(m-n) singular at 0, f ~ t^0.01
        (0.5, 1.0, 4.09444152999109, 6.319647878439),
        (4.0, 1.0, 6.0, 8.0),      # largest at the upper end
    ])
    def test_end_mass_bound_covers_the_dropped_ends(self, m, n, r, big_b):
        # the mass beyond the end nodes t = -+3.25 lies inside the bound the
        # scheme adds to tail_bound (a Toronto value has no other tail).
        # Near 0, where t^(m-n) may be singular, quad integrates it; B less
        # delta rounds to B, and the integrand is smooth there, so that end
        # is delta f(B).
        delta = big_b * oracle._TS_NODES[1][0]

        def f(t):
            return (2.0 * r ** (n - m + 1.0) * t ** (m - n)
                    * math.exp(-((t - r) ** 2)) * ive(n, 2.0 * r * t))

        dropped = (quad(f, 0.0, delta, epsabs=0.0, epsrel=1e-8)[0]
                   + delta * f(big_b))
        ov = oracle_toronto(m, n, r, big_b, scheme="gauss")
        assert 0.0 < dropped <= ov.tail_bound <= 4.0 * dropped
        assert ov.tail_bound <= EPS * ov.value

    def test_no_node_at_a_singular_lower_end(self):
        # B * 2.7e-18 underflows to 0 below B = 2e-306, where t^(m-n) with
        # m - n = -0.5 would be infinite and the sum NaN; the value itself
        # underflows to 0
        for big_b in (1e-300, 1e-310, 5e-324):
            ov = oracle_toronto(0.5, 1.0, 1.0, big_b, scheme="gauss")
            assert ov.value == 0.0 and ov.subdivisions == 105, big_b

    def test_rounding_floor_in_both_schemes(self):
        # above about 1e6 the default absolute tol is below an ulp: both
        # schemes accept within 64 ulps of the value, and the second
        # scheme's estimate never claims less than that
        for args in ((10.0, 10.0, 6.0, 8.0), (10.0, 9.0, 6.0, 0.5)):
            adaptive = oracle_nuttall(*args)
            gauss = oracle_nuttall(*args, scheme="gauss")
            assert adaptive.value > 1e6
            assert gauss.abs_err_est >= 64 * EPS * abs(gauss.value)
            assert abs(gauss.value - adaptive.value) <= (
                gauss.abs_err_est + adaptive.abs_err_est)

    def test_accepted_values_meet_their_promise(self):
        # each accepted value is within abs_err_est + 64 ulps of the
        # adaptive series at tol 1e-14 plus that series' allowance of
        # 10 tol relative; the only refusal allowed is ToleranceNotMetError
        rng = random.Random(22)
        accepted = 0
        for i in range(450):
            n = 10.0 * rng.random()
            scale = 6.0 * (1.0 - rng.random())
            limit = 8.0 * (1.0 - rng.random())
            tol = rng.choice((1e-12, 1e-10, 1e-8))
            if i % 3 == 0:
                call, series = oracle_nuttall, _nuttall_series
                args = (10.0 * rng.random(), n, scale, limit)
            elif i % 3 == 1:
                low = max(0.0, n - 0.99)
                call, series = oracle_toronto, _toronto_series
                args = (low + (10.0 - low) * rng.random(), n, scale, limit)
            else:
                call, series = oracle_marcum, _marcum_series
                args = (1.0 + 9.0 * rng.random(), scale, limit)
            try:
                ov = call(*args, tol=tol, scheme="gauss")
            except ToleranceNotMetError:
                continue
            accepted += 1
            want = series(*args)
            allowance = ov.abs_err_est + (64 * EPS + 10 * 1e-14) * abs(want)
            assert abs(ov.value - want) <= allowance, (call.__name__, args, tol)
        assert accepted >= 440


class TestBesselKernel:
    """The second scheme's Bessel factor ive(nu, a x) / a^nu, from numpy
    alone, against a 40-digit mpmath value."""

    # the worst relative error over the points below is 20 eps; scipy's
    # ive is up to hundreds of eps off at non-integer order
    BOUND = 32 * EPS

    @staticmethod
    def reference(mpmath, nu, a, x):
        z = mpmath.mpf(a) * mpmath.mpf(x)
        return mpmath.besseli(nu, z) * mpmath.exp(-z) / mpmath.mpf(a) ** nu

    def test_within_bound_of_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(31)
        checked = subnormal = 0
        with mpmath.workdps(40):
            for _ in range(420):
                nu = rng.choice([float(rng.randrange(11)),
                                 rng.randrange(10) + 0.5, 10.0 * rng.random()])
                # a scale in the box, or one so small that a x is subnormal
                a = rng.choice([6.0 * (1.0 - rng.random()),
                                10.0 ** (-300.0 - 23.0 * rng.random())])
                # nodes across [0.01, 48], some on either side of the seam
                xs = [0.01 + 48.0 * rng.random() for _ in range(6)]
                seam = oracle._SEAM / a
                if seam < 48.0:
                    xs += [seam * (1.0 + 0.01 * (rng.random() - 0.5))
                           for _ in range(4)]
                xs.sort()
                got = oracle._ive_scaled(nu, np.array(xs), a)
                for x, value in zip(xs, got):
                    want = self.reference(mpmath, nu, a, x)
                    assert abs(value - want) <= self.BOUND * want, (nu, a, x)
                    checked += 1
                    subnormal += 0.0 < a * x < 2.0 ** -1022
        assert checked >= 3000 and subnormal >= 500

    def test_branches_meet_at_the_seam(self):
        # the series and the Hankel sum each evaluated just past the seam,
        # on the other's side, agree with the reference there
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            for nu in (0.0, 0.5, 3.3, 9.5, 10.0):
                x = np.array([np.nextafter(40.0, 0.0), 40.0])
                got = oracle._ive_scaled(nu, x, 1.0)
                for xv, value in zip(x, got):
                    want = self.reference(mpmath, nu, 1.0, xv)
                    assert abs(value - want) <= self.BOUND * want, (nu, xv)

    def test_tanh_sinh_nodes_ascend(self, monkeypatch):
        # the kernel splits its nodes at the seam by their order, so each
        # stage must hand them over in nondecreasing order
        calls = TestGaussScheme.counting(monkeypatch)
        oracle_nuttall(2.0, 3.3, 5.0, 0.0, scheme="gauss", tol=1e-14)
        oracle_toronto(4.3, 3.3, 3.5, 8.0, scheme="gauss", tol=1e-14)
        oracle_nuttall(2.210052415685765, 4.826134880079131, 5.701758822019991,
                       0.4198386589114511, scheme="gauss", tol=1e-14)
        assert [x.size for x in calls] == [417, 417, 417, 416]
        for x in calls:
            assert np.all(np.diff(x) >= 0.0)

    def test_underflowing_bessel_argument(self, capsys):
        # scipy's ive(0.5, a x) underflows to 0 at a x below about 1e-305:
        # the second scheme then printed 0.79788456060168778, 2.5e-10 off
        # sqrt(2/pi), with exit 0.  At a = 5e-324 it refused, since the
        # value underflowed to 0.
        want = math.sqrt(2.0 / math.pi)
        for a in ("1e-300", "5e-324"):
            assert main(["compare", "nuttall_norm", "--m", "0.5", "--n", "0.5",
                         "--a", a, "--b", "0", "--method", "adaptive",
                         "--scheme", "gauss", "--format", "json"]) == 0
            row = [json.loads(line) for line in capsys.readouterr().out.splitlines()
                   if json.loads(line)["type"] == "row"][0]
            assert abs(row["oracle_value"] - want) <= 64 * EPS * want, a


def _nuttall_series(m, n, a, b):
    """Unnormalized Q_{m,n}(a, b) by the adaptive series at tol 1e-14."""
    return a ** n * nuttall_series_adaptive(NuttallParams(m, n, a, b),
                                            tol=1e-14).value


def _toronto_series(m, n, r, big_b):
    return toronto_series_adaptive(TorontoParams(m, n, r, big_b), tol=1e-14).value


def _marcum_series(m, a, b):
    return marcum_q(m, a, b, tol=1e-14)


class TestGoldenFile:
    def test_reads_thirty_entries(self, golden_entries):
        assert len(golden_entries) == 30
        kinds = [e.kind for e in golden_entries]
        assert kinds.count("nuttall") == 12
        assert kinds.count("toronto") == 12
        assert kinds.count("marcum") == 6

    def test_header_and_tols_are_the_ones_regeneration_writes(
            self, golden_entries):
        # regeneration rewrites the header and every entry's tol column
        # from GOLDEN_TOL and the entry count
        header = golden_path().read_text().splitlines()[2]
        assert header == (f"# {len(golden_entries)} cases, adaptive scheme, "
                          f"tol={GOLDEN_TOL!r}")
        assert all(e.tol == GOLDEN_TOL for e in golden_entries)

    def test_regeneration_bit_identical(self, tmp_path):
        out = tmp_path / "golden.txt"
        write_golden(out)
        assert out.read_bytes() == golden_path().read_bytes()

    def test_regeneration_recomputes_the_packaged_entries(self, tmp_path,
                                                          monkeypatch):
        lines = golden_path().read_text().splitlines()
        packaged = tmp_path / "packaged.txt"
        packaged.write_text("\n".join(lines[:6]) + "\n")
        monkeypatch.setattr(oracle, "golden_path", lambda: packaged)
        out = tmp_path / "golden.txt"
        write_golden(out)
        assert out.read_text().splitlines() == [
            *lines[:2], "# 3 cases, adaptive scheme, tol=1e-13", *lines[3:6]]

    def test_unreadable_packaged_file_writes_nothing(self, tmp_path,
                                                     monkeypatch, capsys):
        missing = tmp_path / "missing.txt"
        monkeypatch.setattr(oracle, "golden_path", lambda: missing)
        message = (f"cannot read golden file {str(missing)!r}: "
                   "No such file or directory")
        out = tmp_path / "out" / "golden.txt"
        with pytest.raises(DomainError) as refused:
            write_golden(out)
        assert str(refused.value) == message
        assert main(["golden", "--regenerate", "--path", str(out)]) == 2
        assert capsys.readouterr().out == f"# error domain_error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_dual_scheme_agreement(self, golden_entries):
        from nuttq.oracle import _evaluate_case
        for e in golden_entries:
            gauss = _evaluate_case(e.kind, e.m, e.n, e.a_or_r, e.b_or_big_b,
                                   e.tol, scheme="gauss")
            assert abs(gauss.value - e.value) <= 2.0 * GOLDEN_TOL, e

    def test_marcum_rows_consistent_with_nuttall(self, golden_entries):
        # marcum(m,a,b) = a^(1-m) * nuttall(m, m-1, a, b); the first marcum
        # row repeats the first nuttall row's parameters at m=1 where the
        # scale factor is 1, so the stored values must agree exactly
        nut = golden_entries[0]
        mar = next(e for e in golden_entries if e.kind == "marcum")
        assert (nut.m, nut.n) == (1.0, 0.0)
        assert (mar.m, mar.a_or_r, mar.b_or_big_b) == (1.0, nut.a_or_r, nut.b_or_big_b)
        assert mar.value == nut.value
