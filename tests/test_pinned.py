"""Pins on the arithmetic of the closed forms and the oracle.

Each closed form builds its incomplete gamma lists once per value from the
half-integer ladder; the kernel-call counts below hold it to that: no call
for Nuttall, at most 6 for Toronto.  The float.hex pins hold the
exact bits of a few closed-form, truncation-bound and adaptive-oracle
values, so any reordering of their arithmetic fails here even when it
stays within tolerance.  The pinned points are ones where the closed forms
agree with the series to a few ulps; they pin bits, not accuracy.

No value that numpy computes is hex-pinned: its bits depend on the CPU
(numpy's SIMD dispatch, the BLAS kernel), not on the code alone.  The
second oracle scheme's values get their node counts and their accuracy
checked instead; their bits are guarded on one host by
tools/compare_checkouts.py.
"""

import pytest

import nuttq.nuttall as nuttall
import nuttq.special as special
import nuttq.toronto as toronto
from nuttq.nuttall import (
    NuttallParams,
    nuttall_half_integer_closed,
    nuttall_q,
    nuttall_truncation_bound,
)
from nuttq.oracle import oracle_marcum, oracle_nuttall, oracle_toronto
from nuttq.toronto import (
    TorontoParams,
    toronto_closed_form_half,
    toronto_t,
    toronto_truncation_bound,
)

EPS = 2.0 ** -52


@pytest.fixture
def gamma_calls(monkeypatch):
    """Count the linear-domain incomplete gamma calls made through any
    module-level name of the kernels, in special and in both families."""
    calls = []

    for module in (special, nuttall, toronto):
        for name in ("lower_inc_gamma", "upper_inc_gamma"):
            kernel = getattr(module, name, None)
            if kernel is None:
                continue

            def wrapper(*args, kernel=kernel, name=name):
                calls.append((name, args))
                return kernel(*args)

            monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.mark.parametrize("m, n, a, b", [
    (9.5, 9.5, 0.5, 1.0),
    (9.5, 9.5, 3.0, 4.0),
    (9.5, 0.5, 2.0, 1.0),
    (6.5, 3.5, 2.5, 2.5),
    (9.5, 4.5, 3.0, 3.0),   # the seam b = a
    (9.5, 4.5, 3.0, 0.0),   # b = 0: both lists at the argument a^2/2
    (0.5, 0.5, 3.0, 0.0),
])
def test_nuttall_closed_form_gamma_calls(gamma_calls, m, n, a, b):
    nuttall_half_integer_closed(NuttallParams(m, n, a, b))
    assert len(gamma_calls) == 0
    assert len(set(gamma_calls)) == len(gamma_calls)


@pytest.mark.parametrize("m, n, r, big_b", [
    (10.0, 0.5, 6.0, 0.1),
    (10.0, 4.5, 2.0, 3.0),
    (9.0, 4.5, 1.0, 2.5),
    (4.0, 1.5, 1.5, 1.5),
    # B = 2r: (B - r)^2 equals r^2, so the list at r^2 serves both
    (10.0, 0.5, 1.0, 2.0),
    (9.0, 4.5, 1.5, 3.0),
])
def test_toronto_closed_form_gamma_calls(gamma_calls, m, n, r, big_b):
    toronto_closed_form_half(m, n, r, big_b)
    assert len(gamma_calls) <= 6
    assert len(set(gamma_calls)) == len(gamma_calls)


@pytest.mark.parametrize("params, bits", [
    ((6.5, 3.5, 2.5, 2.0), "0x1.e6ecb5e67d4a5p+3"),
    ((5.5, 0.5, 1.0, 1.0), "0x1.9f25d2befbe47p+4"),
    ((2.5, 1.5, 2.0, 3.0), "0x1.b936d082726a9p-2"),
    # the top of the box: mu = nu = 9 on the b = a seam, then nu < mu
    ((9.5, 9.5, 6.0, 6.0), "0x1.040831a0157b8p-3"),
    ((9.5, 4.5, 4.0, 5.0), "0x1.417510b41c783p+9"),
])
def test_nuttall_closed_form_bits(params, bits):
    assert nuttall_half_integer_closed(NuttallParams(*params)).hex() == bits


@pytest.mark.parametrize("params, bits", [
    ((6.0, 2.5, 1.0, 2.5), "0x1.982f3e39dbe37p-1"),
    ((9.0, 4.5, 2.0, 3.0), "0x1.95241a3f0e2bbp-2"),
    ((4.0, 1.5, 1.5, 1.5), "0x1.533fe7304483cp-3"),
    ((2.0, 0.5, 1.0, 2.0), "0x1.a29c1cacd964ap-1"),
    # the top of the box: m = 10 on the B = r seam, then nu = 0
    ((10.0, 4.5, 3.0, 3.0), "0x1.e2d475827bdb6p-4"),
    ((10.0, 0.5, 2.0, 3.0), "0x1.e11cc33e196c8p+1"),
])
def test_toronto_closed_form_bits(params, bits):
    assert toronto_closed_form_half(*params).hex() == bits


def test_truncation_bound_bits():
    rep = nuttall_truncation_bound(NuttallParams(3.0, 1.0, 2.0, 1.5), 20)
    assert (rep.bound_value.hex(), rep.slack.hex()) == \
        ("0x1.ca91a5f69bc20p-3", "0x1.ca91a5f698040p-3")
    rep = toronto_truncation_bound(TorontoParams(3.0, 1.0, 1.0, 2.0), 20)
    assert (rep.bound_value.hex(), rep.slack.hex()) == \
        ("0x1.30625f0c5efa2p-2", "0x1.30625f0c5efa2p-2")


@pytest.mark.parametrize("call, bits", [
    (lambda: oracle_nuttall(2.0, 1.0, 1.0, 2.0),
     ("0x1.0f6f6a6097a11p-1", "0x1.3d79b2e560000p-46", 5)),
    (lambda: oracle_nuttall(3.5, 0.5, 4.0, 0.0),
     ("0x1.3000000000002p+5", "0x1.d58b951dc0000p-39", 7)),
    (lambda: oracle_toronto(2.0, 1.0, 1.0, 3.0),
     ("0x1.69a5d4a639b55p-1", "0x1.1a898e21dd15ap-47", 2)),
    # one panel, confirmed by the midpoint split
    (lambda: oracle_toronto(2.0, 1.0, 2.0, 1.0),
     ("0x1.2f0f5a422cbf5p-5", "0x1.d987fd0765eafp-52", 1)),
    (lambda: oracle_marcum(2.0, 1.0, 1.0),
     ("0x1.e1af416f43143p-1", "0x1.8f79b2e560000p-46", 6)),
])
def test_adaptive_oracle_bits(call, bits):
    ov = call()
    assert (ov.value.hex(), ov.abs_err_est.hex(), ov.subdivisions) == bits


# values the second scheme accepts at each of its first four comparisons
# (105, 209, 417 and 833 nodes), each with its node count and the adaptive
# series at tol 1e-14.  Their last bits are numpy's and move with its SIMD
# dispatch and the BLAS kernel, so only what the scheme decides is checked:
# the node count exactly, the value within abs_err_est plus 64 ulps and the
# series' own allowance of 10 tol relative, and a tail bound inside
# abs_err_est.
@pytest.mark.parametrize("call, bits", [
    (lambda: oracle_toronto(2.0, 1.0, 1.0, 3.0, scheme="gauss"),
     (105, lambda: toronto_t(2.0, 1.0, 1.0, 3.0, tol=1e-14))),
    (lambda: oracle_toronto(2.0, 1.0, 2.0, 2.0, scheme="gauss"),
     (105, lambda: toronto_t(2.0, 1.0, 2.0, 2.0, tol=1e-14))),
    (lambda: oracle_nuttall(3.5, 9.859657406200126, 0.42683455529013425,
                            0.24600880845346218, scheme="gauss"),
     (209, lambda: nuttall_q(3.5, 9.859657406200126, 0.42683455529013425,
                             0.24600880845346218, tol=1e-14))),
    (lambda: oracle_nuttall(2.0, 3.3, 5.0, 0.0, tol=1e-14, scheme="gauss"),
     (417, lambda: nuttall_q(2.0, 3.3, 5.0, 0.0, tol=1e-14))),
    (lambda: oracle_nuttall(2.210052415685765, 4.826134880079131,
                            5.701758822019991, 0.4198386589114511, tol=1e-14,
                            scheme="gauss"),
     (833, lambda: nuttall_q(2.210052415685765, 4.826134880079131,
                             5.701758822019991, 0.4198386589114511,
                             tol=1e-14))),
])
def test_second_scheme_oracle_bits(call, bits):
    nodes, series = bits
    ov, want = call(), series()
    assert ov.subdivisions == nodes
    allowance = ov.abs_err_est + (64 * EPS + 10 * 1e-14) * abs(want)
    assert abs(ov.value - want) <= allowance
    assert 0.0 < ov.tail_bound <= ov.abs_err_est
