"""The recurrences that carry both series from term to term.

The Nuttall series makes one incomplete gamma kernel call per value.  The
Toronto series makes one for term 0 and one per block of 32 later terms,
and steps the rest down from each block's top.  These tests hold the
recurrences, and the stop rule's proven tail bound at tols from 1e-14 to
1e-6, to a 50-digit series reference over a seeded set of box points and
over long descents at large B and r, count the kernel calls exactly,
check the Toronto-Marcum identity on figure f3's rows, and pin the edge
cases where a running term must be recomputed in log domain: terms that
underflow before the hump and a term that overflows mid-series; and
where B^2 is below the normal range, the Toronto term 0 that is made
from log B with no kernel call.

A truncation-bound report walks its series once for every depth it is
asked for; later tests count the walks and hold the reports to the bits
of one report per depth, and check that an adaptive sum reads its walk
to the end.  The last ones pin the walk's contract: every checkpoint is
a SeriesResult, the one at depth P is the P-term truncated sum, the stop
rule counts from term 0, and a cap ends the walk with that depth's
partial sum and makes no term past it.  The walks and kernels count in
floats; the last test checks that every count they hand out is an int.
"""

import json
import math
import random
import sys

import pytest

import nuttq.nuttall as nuttall
import nuttq.special as special
import nuttq.toronto as toronto
from nuttq.cli import main
from nuttq.errors import DomainError, NonConvergenceError, TermOverflowError
from nuttq.nuttall import (
    NuttallParams,
    nuttall_series_adaptive,
    nuttall_series_truncated,
)
from nuttq.special import (
    ADAPTIVE_TOL_MIN,
    DEFAULT_MAX_TERMS,
    LOG_OVERFLOW,
    TERM_MIN,
    SeriesResult,
)
from nuttq.toronto import (
    TorontoParams,
    toronto_series_adaptive,
    toronto_series_truncated,
)

TOL = 1e-14
POINTS = 60
# (tol, allowed relative error against the 50-digit reference).  At 1e-14
# the sums' own rounding, up to about 31 eps, is the size of tol, so the
# gate is 10 tol; at the looser tols it is the stop rule's proven bound on
# the tail, tol, plus 64 eps for rounding.
GATES = ((TOL, 10 * TOL),
         *((tol, tol + 64 * sys.float_info.epsilon)
           for tol in (1e-12, 1e-8, 1e-6)))


def _order(rng, kind):
    """An order in [0, 10]: integer, half-odd or general."""
    if kind == 0:
        return float(rng.randint(0, 10))
    if kind == 1:
        return rng.randint(0, 9) + 0.5
    return rng.uniform(0.0, 10.0)


def _box(seed, edge_limit, toronto_orders):
    """POINTS seeded (m, n, scale, limit) tuples: every pair of order kinds,
    scales 1e-3 and 6 beside uniform draws, the given edge limit beside
    uniform draws on (0, 8]."""
    rng = random.Random(seed)
    points = []
    for i in range(POINTS):
        n = _order(rng, i % 3)
        m = _order(rng, (i // 3) % 3)
        while toronto_orders and not m - n > -1.0:
            m = _order(rng, (i // 3) % 3)
        if i % 4 < 2:
            scale = (1e-3, 6.0)[i % 4]
        else:
            scale = 6.0 * (1.0 - rng.random())
        limit = edge_limit if i % 5 == 0 else 8.0 * (1.0 - rng.random())
        points.append((m, n, scale, limit))
    return points


NUTTALL_BOX = _box(8, 0.0, toronto_orders=False)
TORONTO_BOX = _box(9, 1e-3, toronto_orders=True)


def _nuttall_reference(mp, m, n, a, b):
    """Normalized Nuttall Q at 50 digits: Gamma(s + l, x) stepped upward
    from one mpmath gammainc, every step adding positive quantities."""
    with mp.workdps(50):
        m, n, a, b = (mp.mpf(v) for v in (m, n, a, b))
        s = (m + n + 1) / 2
        x = b * b / 2
        g = mp.gammainc(s, x)
        xs = x ** s * mp.exp(-x)
        w = mp.exp(-a * a / 2) / (mp.gamma(n + 1) * mp.power(2, (n - m + 1) / 2))
        total = mp.mpf(0)
        l = 0
        # past l = 2a^2 + 20 the term ratio is under 3/4 and falling
        while True:
            t = w * g
            total += t
            if l > 2 * a * a + 20 and t < mp.mpf(10) ** -48 * total:
                return float(total)
            g = (s + l) * g + xs
            xs *= x
            w *= a * a / (2 * (l + 1) * (n + l + 1))
            l += 1


def _toronto_reference(mp, m, n, r, big_b):
    """Incomplete Toronto function at 50 digits, one mpmath lower gamma per
    term.  gamma(s+1, x) < s gamma(s, x), so once r^2 (c+k)/((k+1)(n+k+1))
    is under 1/2 the tail is under the last term."""
    with mp.workdps(50):
        m, n, r, big_b = (mp.mpf(v) for v in (m, n, r, big_b))
        c = (m + 1) / 2
        x = big_b * big_b
        w = r ** (2 * n - m + 1) * mp.exp(-r * r) / mp.gamma(n + 1)
        total = mp.mpf(0)
        k = 0
        while True:
            t = w * mp.gammainc(c + k, 0, x)
            total += t
            if (r * r * (c + k) < (k + 1) * (n + k + 1) / 2
                    and t < mp.mpf(10) ** -48 * total):
                return float(total)
            w *= r * r / ((k + 1) * (n + k + 1))
            k += 1


def test_boxes_cover_the_edges():
    for box, edge in ((NUTTALL_BOX, 0.0), (TORONTO_BOX, 1e-3)):
        assert sum(p[3] == edge for p in box) == POINTS // 5
        assert {1e-3, 6.0} <= {p[2] for p in box}
        for i in range(2):
            kinds = {(0.0 if v == int(v) else 0.5 if v % 1 == 0.5 else 0.25)
                     for v in (p[i] for p in box)}
            assert len(kinds) == 3


def _match_reference(series, params, reference, points):
    """Every point's adaptive sum at each tol of GATES within its gate of
    the 50-digit reference."""
    mp = pytest.importorskip("mpmath")
    for point in points:
        want = reference(mp, *point)
        for tol, gate in GATES:
            got = series(params(*point), tol=tol).value
            assert abs(got - want) <= gate * want, (point, tol)


def test_nuttall_recurrence_matches_50_digit_reference():
    _match_reference(nuttall_series_adaptive, NuttallParams,
                     _nuttall_reference, NUTTALL_BOX)


def test_toronto_recurrence_matches_50_digit_reference():
    _match_reference(toronto_series_adaptive, TorontoParams,
                     _toronto_reference, TORONTO_BOX)


def _long_descents(seed, count):
    """count seeded Toronto points with B in [6, 8] and r in [3, 6]: the
    hump lies past k ~ r^2 and each block's descent crosses s ~ B^2."""
    rng = random.Random(seed)
    points = []
    for i in range(count):
        n = _order(rng, i % 3)
        m = _order(rng, (i // 3) % 3)
        while not m - n > -1.0:
            m = _order(rng, (i // 3) % 3)
        points.append((m, n, rng.uniform(3.0, 6.0), rng.uniform(6.0, 8.0)))
    return points


def test_toronto_long_descents_match_50_digit_reference():
    _match_reference(toronto_series_adaptive, TorontoParams,
                     _toronto_reference, _long_descents(16, 40))


@pytest.fixture
def kernel_calls(monkeypatch):
    """Count the incomplete gamma kernel calls each series module makes."""
    calls = {"nuttall": 0, "toronto": 0}

    def counted(module, name):
        kernel = getattr(module, name)

        def wrapper(*args):
            calls[module.__name__.rsplit(".", 1)[1]] += 1
            return kernel(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(nuttall, "upper_inc_gamma_log")
    counted(toronto, "lower_inc_gamma_log")
    return calls


def test_nuttall_value_makes_one_kernel_call(kernel_calls):
    for tol in (TOL, 1e-12, 1e-6):
        for m, n, a, b in NUTTALL_BOX:
            kernel_calls["nuttall"] = 0
            nuttall_series_adaptive(NuttallParams(m, n, a, b), tol=tol)
            assert kernel_calls["nuttall"] <= 1, (m, n, a, b, tol)


def test_toronto_value_makes_one_kernel_call_per_block(kernel_calls):
    # term 0 has its own call; each later block of _BLOCK terms one more.
    # No term of the box leaves the normal range, so none is recomputed.
    for tol in (TOL, 1e-12, 1e-6):
        for m, n, r, big_b in TORONTO_BOX:
            kernel_calls["toronto"] = 0
            res = toronto_series_adaptive(TorontoParams(m, n, r, big_b), tol=tol)
            assert (kernel_calls["toronto"]
                    == 1 + math.ceil((res.terms_used - 1) / toronto._BLOCK)), \
                (m, n, r, big_b, tol)


def test_toronto_box_kernel_call_total(kernel_calls):
    # blocks of 8 made 275 calls here
    for point in TORONTO_BOX:
        toronto_series_adaptive(TorontoParams(*point), tol=1e-12)
    assert kernel_calls["toronto"] == 145


def test_terms_underflowing_before_the_hump_are_recomputed():
    # e^(-a^2/2) = e^-1800: the first few hundred terms underflow to 0 and
    # a carried term would stay 0; Q_{2,1}(60, 1)/60 = Q_2(60, 1) ~ 1
    res = nuttall_series_adaptive(NuttallParams(2.0, 1.0, 60.0, 1.0))
    assert res.converged
    assert abs(res.value - 1.0) < 1e-10


def test_underflowed_limit_is_zero_without_kernel_calls(kernel_calls):
    # B^2 underflows to 0: term 0, made from 2c log B - log c, is 0.0 and
    # the stop; every partial sum is 0.0, and so is the limit behind the
    # truncation reports
    for big_b in (1e-200, 1e-170):
        p = TorontoParams(2.0, 1.0, 1.0, big_b)
        res = toronto_series_adaptive(p)
        assert (res.value, res.terms_used, res.last_term_abs) == (0.0, 1, 0.0)
        for depth in (1, 20, 500):
            res = toronto_series_truncated(p, depth)
            assert (res.value, res.terms_used, res.last_term_abs) == \
                (0.0, depth, 0.0)
        reports = toronto.toronto_truncation_bounds(p, [3, 1])
        assert [(r.dominated_quantity, r.slack) for r in reports] == \
            [(0.0, 0.0)] * 2
    assert kernel_calls["toronto"] == 0


# B^2 below the normal range, at orders and r where term 0 is normal, is
# subnormal and underflows to 0 (m = 2), and B = 1.5e-154, whose square is
# just inside the normal range
_TINY_B = (1.5e-154, 1e-154, 1e-160, 1e-161, 1e-300, 5e-324)
_TINY_B_ORDERS = ((0.0, 0.0, 1.0), (0.5, 0.0, 1.0), (2.0, 1.0, 1.0),
                  (0.0, 0.0, 6.0), (10.0, 9.5, 3.0))


def test_subnormal_square_takes_term_zero_from_log_b(kernel_calls):
    # x = B * B has lost digits below TERM_MIN and gamma(c, x) ~ x^c keeps
    # the error (0.6% at B = 1e-161); term 0 from 2c log B - log c is the
    # value, with no kernel call
    mp = pytest.importorskip("mpmath")
    for big_b in _TINY_B:
        for m, n, r in _TINY_B_ORDERS:
            want = _toronto_reference(mp, m, n, r, big_b)
            kernel_calls["toronto"] = 0
            got = toronto_series_adaptive(TorontoParams(m, n, r, big_b)).value
            # a subnormal value is good to its spacing, 5e-324
            assert abs(got - want) <= 1e-13 * want + 5e-324, (m, n, r, big_b)
            assert (kernel_calls["toronto"] == 0) == (big_b * big_b < TERM_MIN)


def test_figure_f3_rows_meet_the_marcum_identity(capsys):
    # T_B(3, 1, r) = 1 - Q_2(r sqrt 2, B sqrt 2), row by row
    assert main(["figure", "f3", "--format", "json"]) == 0
    rows = [rec for rec in map(json.loads, capsys.readouterr().out.splitlines())
            if rec["type"] == "row"]
    assert len(rows) == 45
    for rec in rows:
        assert rec["identity_residual"] <= 1e-12, rec
        assert abs(rec["toronto_value"] - rec["one_minus_marcum"]) <= 1e-12, rec


# the log-domain term each overflow below carries, bit for bit
_OVERFLOW_LOG_TERMS = {"l=248": 700.9233079486386, "k=80": 700.9699571548065}


@pytest.mark.parametrize("series, params, index", [
    (nuttall_series_adaptive, NuttallParams(300.0, 0.0, 40.0, 1.0), "l=248"),
    (toronto_series_adaptive, TorontoParams(1300.0, 0.0, 10.0, 20.0), "k=80"),
])
def test_overflow_mid_series_raises_at_the_log_domain_index(series, params, index):
    with pytest.raises(TermOverflowError, match=f"overflows at {index} ") as exc:
        series(params)
    assert LOG_OVERFLOW < exc.value.log_term < LOG_OVERFLOW + 1.0
    assert str(exc.value) == f"series term overflows at {index} for {params}"
    assert exc.value.log_term == _OVERFLOW_LOG_TERMS[index]


FAMILIES = [
    (nuttall, NuttallParams, NUTTALL_BOX),
    (toronto, TorontoParams, TORONTO_BOX),
]


def _bound_functions(module):
    family = module.__name__.rsplit(".", 1)[1]
    return (getattr(module, f"{family}_truncation_bound"),
            getattr(module, f"{family}_truncation_bounds"))


def _bits(report):
    return (report.bound_value.hex(), report.dominated_quantity.hex(),
            report.regime_ok, report.slack.hex())


@pytest.mark.parametrize("module, params, box", FAMILIES)
def test_reports_at_many_depths_have_the_bits_of_one_report_per_depth(
        module, params, box):
    # depth 500 lies past every adaptive stop in the box; unsorted and
    # duplicate depths are reported in the order asked for
    single, many = _bound_functions(module)
    for depths in ([1, 5, 5, 20, 500], [20, 5, 20], [500, 2, 60, 2, 1]):
        reported = 0
        for point in box:
            p = params(*point)
            try:
                reports = many(p, depths)
            except DomainError as exc:
                with pytest.raises(DomainError) as one:
                    single(p, depths[0])
                assert str(one.value) == str(exc)
                continue
            assert [_bits(r) for r in reports] == \
                [_bits(single(p, depth)) for depth in depths], (point, depths)
            reported += 1
        assert reported >= 10, depths


@pytest.fixture
def walks(monkeypatch):
    """Count the walks each series module starts."""
    started = {"nuttall": 0, "toronto": 0}
    for module in (nuttall, toronto):
        family = module.__name__.rsplit(".", 1)[1]

        def counted(*args, walk=module._walk, family=family):
            started[family] += 1
            return walk(*args)

        monkeypatch.setattr(module, "_walk", counted)
    return started


@pytest.mark.parametrize("module, point, grid", [
    (nuttall, NuttallParams(2.0, 1.0, 1.0, 2.0),
     ["--a", "1,1", "--b", "2"]),
    (toronto, TorontoParams(3.0, 1.5, 1.0, 2.0),
     ["--r", "1,0.5", "--B", "2"]),
])
def test_one_walk_per_report_and_per_point_of_a_sweep(
        walks, capsys, module, point, grid):
    family = module.__name__.rsplit(".", 1)[1]
    single, many = _bound_functions(module)
    single(point, 20)
    assert walks[family] == 1
    depths = list(range(1, 16))
    assert len(many(point, depths)) == 15
    assert walks[family] == 2
    rc = main(["bounds", family, "--m", str(point.m), "--n", str(point.n),
               *grid, "--terms", ",".join(map(str, depths))])
    assert rc == 0
    assert "rows=30 " in capsys.readouterr().out
    assert walks[family] == 4


@pytest.mark.parametrize("module, point", [
    (nuttall, NuttallParams(2.2, 1.1, 3.0, 2.0)),
    (toronto, TorontoParams(3.0, 1.5, 1.0, 2.0)),
])
def test_bad_depths_are_refused_before_a_term_is_drawn(
        monkeypatch, module, point):
    started = []

    def walk(*_args):
        started.append(1)
        return iter(())

    monkeypatch.setattr(module, "_walk", walk)
    _, many = _bound_functions(module)
    for depths, bad in (([0], 0), ([5, 501, 0], 501)):
        with pytest.raises(DomainError,
                           match=rf"^terms must be in \[1, 500\], got {bad}$"):
            many(point, depths)
    with pytest.raises(DomainError, match="at least one depth"):
        many(point, [])
    assert not started


@pytest.mark.parametrize("module, point", [
    (nuttall, NuttallParams(2.2, 1.1, 3.0, 2.0)),
    (toronto, TorontoParams(3.0, 1.5, 1.0, 2.0)),
])
def test_adaptive_sum_reads_its_walk_to_the_end(monkeypatch, module, point):
    # a walk left suspended at its stop checkpoint costs a GeneratorExit
    # when it is dropped; read to its end, it returns
    started = []

    def walk(*args, original=module._walk):
        started.append(original(*args))
        return started[-1]

    monkeypatch.setattr(module, "_walk", walk)
    _, adaptive = _series(point)
    adaptive(point)
    assert len(started) == 1
    assert started[0].gi_frame is None


# A walk sums its terms and applies the stop rule in the loop that makes
# them.  The tests below pin its contract: every checkpoint is a
# SeriesResult, the stop rule counts from term 0, and a cap ends the walk
# with the partial sum of that depth and makes no term past it.


def _result_bits(res):
    return (res.value.hex(), res.terms_used, res.last_term_abs.hex(),
            res.converged)


@pytest.mark.parametrize("module, params, box", FAMILIES)
def test_every_checkpoint_is_the_series_result_of_its_depth(module, params, box):
    # the depth-P checkpoint is the P-term truncated sum, the stop comes
    # last, also where B^2 underflows and the walk makes only term 0
    family = module.__name__.rsplit(".", 1)[1]
    truncated = getattr(module, f"{family}_series_truncated")
    depths = (1, 5, 20, 500)
    points = list(box)
    if module is toronto:
        points += [(2.0, 1.0, 1.0, 1e-170), (0.0, 0.0, 1.0, 1e-161)]
    for point in points:
        p = params(*point)
        checkpoints = list(module._walk(p, depths, ADAPTIVE_TOL_MIN,
                                        DEFAULT_MAX_TERMS))
        assert len(checkpoints) == len(depths) + 1, point
        assert all(type(c) is SeriesResult for c in checkpoints), point
        for depth, checkpoint in zip(depths, checkpoints):
            assert _result_bits(checkpoint) == \
                _result_bits(truncated(p, depth)), (point, depth)


# (terms_used, value.hex()) at tol 0.5, 1 and 2.  From tol 1 on, term 0
# itself is below tol * sum, and the stop can come at it: one term is the
# least a sum can take.  Before the hump (a = 3, r = 3) the ratio majorant
# is above 1 and keeps the sum going.
_LARGE_TOL_PINS = {
    NuttallParams(2.0, 1.0, 3.0, 1.0): [
        (7, "0x1.a87fd69b1b0aap-1"), (6, "0x1.66e6e037d7759p-1"),
        (6, "0x1.66e6e037d7759p-1")],
    NuttallParams(2.5, 1.5, 0.5, 2.0): [
        (2, "0x1.2449f5b7bdbe4p-1"), (1, "0x1.f07e953679d05p-2"),
        (1, "0x1.f07e953679d05p-2")],
    TorontoParams(2.0, 1.0, 3.0, 1.0): [
        (4, "0x1.048ecf2c1ab48p-10"), (4, "0x1.048ecf2c1ab48p-10"),
        (3, "0x1.a796edd905475p-11")],
    TorontoParams(3.0, 1.5, 1.0, 2.0): [
        (2, "0x1.ae27576cfa2b8p-2"), (2, "0x1.ae27576cfa2b8p-2"),
        (2, "0x1.ae27576cfa2b8p-2")],
}


def _series(point):
    if isinstance(point, NuttallParams):
        return nuttall_series_truncated, nuttall_series_adaptive
    return toronto_series_truncated, toronto_series_adaptive


@pytest.mark.parametrize("point", list(_LARGE_TOL_PINS))
def test_stop_rule_counts_from_term_zero(point):
    truncated, adaptive = _series(point)
    for tol, (terms, value) in zip((0.5, 1.0, 2.0), _LARGE_TOL_PINS[point]):
        res = adaptive(point, tol=tol)
        assert (res.terms_used, res.value.hex()) == (terms, value), tol
        assert res.value == truncated(point, terms).value


@pytest.mark.parametrize("point, calls", [
    # a = 60: every term before the hump underflows and is recomputed with
    # a kernel call of its own, so each term made shows as one call
    (NuttallParams(2.0, 1.0, 60.0, 1.0), [1, 2, 3]),
    (NuttallParams(2.0, 1.0, 3.0, 1.0), [1, 1, 1]),
    # term 1 needs the first block's kernel call; term 0 has its own
    (TorontoParams(2.0, 1.0, 3.0, 1.0), [1, 2, 2]),
])
def test_cap_ends_the_walk_with_the_partial_sum(kernel_calls, point, calls):
    truncated, adaptive = _series(point)
    family = "nuttall" if isinstance(point, NuttallParams) else "toronto"
    for cap, want in zip((1, 2, 3), calls):
        kernel_calls[family] = 0
        with pytest.raises(NonConvergenceError) as exc:
            adaptive(point, max_terms=cap)
        assert kernel_calls[family] == want, cap
        assert exc.value.terms == cap
        assert str(exc.value) == (
            f"series for {point} did not meet tol=1e-12 in {cap} terms")
        assert exc.value.partial_value.hex() == truncated(point, cap).value.hex()
        kernel_calls[family] = 0
        assert truncated(point, cap).terms_used == cap
        assert kernel_calls[family] == want, cap


@pytest.mark.parametrize("point", [
    NuttallParams(2.5, 1.5, 0.5, 2.0),
    # every term before the hump is recomputed in log domain
    NuttallParams(2.0, 1.0, 60.0, 1.0),
    # depth 500 runs through many of the walk's blocks
    TorontoParams(3.0, 1.5, 5.0, 2.0),
    TorontoParams(2.0, 1.0, 3.0, 1.0),
])
def test_counts_handed_out_are_ints(monkeypatch, point):
    # the walks' term indices and the kernels' steps are floats; every count
    # that leaves them, in a record, an error or a message, is an int
    module = nuttall if isinstance(point, NuttallParams) else toronto
    family = module.__name__.rsplit(".", 1)[1]
    truncated, adaptive = _series(point)
    read = []

    def recorded(*args, walk=module._walk):
        for checkpoint in walk(*args):
            read.append(checkpoint)
            yield checkpoint

    monkeypatch.setattr(module, "_walk", recorded)
    for terms in (1, 33, 500):
        assert type(truncated(point, terms).terms_used) is int
    assert type(adaptive(point).terms_used) is int
    getattr(module, f"{family}_truncation_bounds")(point, [1, 5, 64, 500])
    assert len(read) == 3 + 1 + 5
    assert all(type(checkpoint.terms_used) is int for checkpoint in read)
    for cap in (2, 5.0):
        with pytest.raises(NonConvergenceError) as exc:
            adaptive(point, max_terms=cap)
        assert type(exc.value.terms) is int
    # the kernels' own caps, lowered so that each one is reached
    monkeypatch.setattr(special, "_MAX_KERNEL_TERMS", 3)
    monkeypatch.setattr(special, "_KUMMER_MAX_TERMS", 3)
    for kernel, args in ((special.lower_inc_gamma_log, (30.3, 20.0)),
                         (special.upper_inc_gamma_log, (3.3, 20.0)),
                         (special.kummer_1f1, (3.3, 2.0, 18.0))):
        with pytest.raises(NonConvergenceError) as exc:
            kernel(*args)
        assert type(exc.value.terms) is int, kernel
    monkeypatch.undo()
    with pytest.raises(TermOverflowError,
                       match=r"^1F1 series overflows at k=457 for a=2.0, "):
        special.kummer_1f1(2.0, 2.0, 800.0)
