"""Compare two checkouts of nuttq: code lines and CLI output.

    python tools/compare_checkouts.py PARENT CHANGE

PARENT and CHANGE are the roots of two checkouts (each holding src/nuttq).
The script prints

- the code lines of each src/nuttq/*.py in both checkouts, counting no
  blank line, no comment-only line and no docstring line;
- every public name that the change adds to or drops from
  ``nuttq.__all__``;
- every invocation of a fixed CLI corpus whose stdout, exit code or
  written file differs between the two;
- every call of a seeded library corpus whose result differs: its repr,
  or for an exception its type, message and attributes (log_term,
  partial_value, ...).  The calls cover the special-function kernels at
  their branch seams and edges, both series, both closed forms, the
  bound reports and the oracle in both schemes;
- a summary line per library function and per CLI subcommand and
  function with differences: how many differ, how many of those differ
  only in float fields (every other character, integers included, the
  same), and the largest relative difference among those floats.

A library call is evaluated only if every name it reads is in that
checkout's ``nuttq.__all__`` (or is nan or inf); otherwise its result
records the missing names.  A call missing names in both checkouts checks
nothing, so it fails the run with exit 2, naming the call; a name that
only one side has is an ordinary difference.

Each checkout runs both corpora in one subprocess that imports nuttq from
that checkout's src/ and calls nuttq.cli.main in-process, with stdout
captured and an uncaught exception recorded as its last traceback line.
The subprocess works in a fresh temporary directory, so the relative
paths the corpus writes to are the same strings in both runs.  Exit code:
0 when every public name, invocation and call matches, 1 otherwise, and 2
for a corpus call that misses names in both checkouts.

CI runs it on one checkout twice (``python tools/compare_checkouts.py . .``):
the corpus must then give the same bytes in two fresh processes, which is
the CLI's determinism contract.  pytest does not collect it.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
import tokenize
import traceback
from pathlib import Path

_NUTTALL = ["--m", "2,3.2", "--n", "1,2.1", "--a", "1,2.5", "--b", "0.5,2"]
_TORONTO = ["--m", "2,3", "--n", "1,1.5", "--r", "0.5,2", "--B", "1,3"]

# One argv per invocation.  A golden file named in this list is written to
# the working directory before the corpus runs (see _FILES).
CORPUS: list[list[str]] = [
    *[["eval", fn, "--m", "2", "--n", "1", "--a", "1", "--b", "2", "--r", "1",
       "--B", "2", "--method", method, *fmt]
      for fn in ("nuttall", "nuttall_norm", "marcum", "toronto")
      for method in ("truncated", "adaptive", "bound_1f1")
      for fmt in ([], ["--format", "json"])],
    ["eval", "nuttall", "--m", "1.5", "--n", "0.5", "--a", "1", "--b", "2",
     "--method", "closed_half"],
    ["eval", "toronto", "--m", "2", "--n", "0.5", "--r", "1", "--B", "2",
     "--method", "closed_half", "--format", "json"],
    ["eval", "toronto", "--m", "2", "--n", "1", "--r", "1", "--B", "2",
     "--method", "closed_half"],
    ["eval", "nuttall", "--m", "2", "--n", "1", "--a", "1", "--b", "2",
     "--method", "truncated", "--terms", "0"],
    ["eval", "nuttall", "--m", "2", "--n", "1", "--a", "1"],
    ["eval", "toronto", "--m", "2", "--r", "1", "--format", "json"],
    ["eval", "marcum", "--m", "2", "--a", "1", "--b", "2", "--max-terms", "3"],
    ["eval", "nuttall", "--m", "2", "--n", "1", "--a", "7", "--b", "2"],
    # eval reads its point through the grid driver: a parse error is an
    # error record, a grid is refused and a blank value counts as missing
    ["eval", "nuttall", "--format", "json", "--m", "abc", "--n", "1",
     "--a", "1", "--b", "2"],
    ["eval", "nuttall", "--m", "2,3", "--n", "1,1", "--a", "1", "--b", "2"],
    ["eval", "nuttall", "--m", "2", "--n", "1", "--a", "", "--b", "2"],
    ["eval", "toronto", "--m", "2", "--n", "1", "--r", "1", "--B", "1e-160"],
    ["eval", "toronto", "--m", "2", "--n", "1", "--r", "1", "--B", "0"],
    # B^2 below the normal range, where x = B * B has lost digits
    *[["eval", "toronto", "--m", m, "--n", "0", "--r", "1", "--B", big_b]
      for m, big_b in (("0", "1e-161"), ("0.5", "1e-161"), ("0", "1e-160"),
                       ("0", "1e-300"))],
    *[["eval", "nuttall", "--m", "2", "--n", "1", "--a", "1", "--b", "2", *flag]
      for flag in (["--tol", "1e-15"], ["--tol", "nan"], ["--tol", "inf"],
                   ["--max-terms", "0"])],
    # closed forms that cancel (a wrong value with exit 0) and the seams
    # b = a, B = r at the top of the box
    ["eval", "nuttall_norm", "--m", "9.5", "--n", "9.5", "--a", "0.5",
     "--b", "1", "--method", "closed_half"],
    ["eval", "toronto", "--m", "10", "--n", "0.5", "--r", "6", "--B", "0.1",
     "--method", "closed_half"],
    ["eval", "nuttall_norm", "--m", "9.5", "--n", "9.5", "--a", "6",
     "--b", "6", "--method", "closed_half"],
    ["eval", "toronto", "--m", "10", "--n", "4.5", "--r", "3", "--B", "3",
     "--method", "closed_half"],
    # closed forms at a, r = 1e-200: a^-k or r^(n-m+1/2) overflows, or the
    # Nuttall prefactor underflows to 0; at (4.5, 0.5, 1e-200, 1) the sum
    # cancels instead.  compare nuttall_norm divides by a^n = 0 there.
    *[[command, fn, "--m", m, "--n", m, "--a", "1e-200", "--b", b, *extra]
      for m, b in (("7.5", "8"), ("1.5", "2.5"))
      for command, fn, extra in (
          ("eval", "nuttall_norm", ["--method", "closed_half"]),
          ("bounds", "nuttall", []),
          ("compare", "nuttall", ["--with-bounds"]),
          ("compare", "nuttall_norm", []))],
    ["eval", "toronto", "--m", "10", "--n", "0.5", "--r", "1e-200", "--B", "2",
     "--method", "closed_half"],
    ["eval", "nuttall_norm", "--m", "4.5", "--n", "0.5", "--a", "1e-200",
     "--b", "1", "--method", "closed_half"],
    # a^n = 1e-320 does not underflow, but the oracle's integrand does
    ["compare", "nuttall_norm", "--m", "2", "--n", "2", "--a", "1e-160",
     "--b", "1"],
    ["compare", "nuttall", "--m", "2", "--n", "2", "--a", "1e-160", "--b", "1"],
    # normalized oracle values at a small a^n, where an absolute tol on the
    # unnormalized integral is loose, and a Marcum a^(m-1) below the
    # normal range
    ["compare", "nuttall_norm", "--m", "10", "--n", "10", "--a", "0.1",
     "--b", "1"],
    ["compare", "nuttall_norm", "--m", "8", "--n", "8.5",
     "--a", "0.018453987996552623", "--b", "1.0365687412916147"],
    ["compare", "marcum", "--m", "10", "--a", "0.01", "--b", "1"],
    ["compare", "marcum", "--m", "3", "--a", "1e-160", "--b", "1"],
    *[["compare", fn, *grid, *extra]
      for fn, grid in (("nuttall", _NUTTALL), ("nuttall_norm", _NUTTALL),
                       ("marcum", _NUTTALL[:2] + _NUTTALL[4:]),
                       ("toronto", _TORONTO))
      for extra in ([], ["--with-bounds"],
                    ["--with-bounds", "--method", "adaptive", "--format", "json"],
                    ["--scheme", "gauss", "--terms", "5"])],
    ["compare", "nuttall", "--m", "2", "--n", "1", "--a", "1", "--b", "2",
     "--assert-rel-err", "1e-30"],
    ["compare", "toronto", "--m", "2", "--n", "1", "--r", "1", "--B", "2",
     "--with-bounds", "--method", "adaptive", "--terms", "0"],
    ["compare", "nuttall", "--m", "2", "--n", "1", "--a", "", "--b", "1"],
    ["compare", "nuttall", "--m", "2", "--n", "1", "--a", ",", "--b", "1"],
    # the truncation bound refuses n = 0.2; the 1F1 bound is kept
    ["compare", "toronto", "--m", "2", "--n", "0.2", "--r", "1", "--B", "2",
     "--with-bounds"],
    ["compare", "nuttall", "--m", "2,3", "--n", "1", "--a", "1", "--b", "1"],
    ["compare", "nuttall", "--m", "2", "--n", "1", "--a", "1,x", "--b", "1"],
    ["compare", "nuttall", "--m", "2", "--n", "1",
     "--a", ",".join(["1"] * 101), "--b", ",".join(["1"] * 100)],
    ["compare", "nuttall", "--m", "11", "--n", "1", "--a", "1", "--b", "1"],
    *[["bounds", fn, *grid, "--terms", terms, *fmt]
      for fn, grid in (("nuttall", _NUTTALL), ("toronto", _TORONTO))
      for terms in ("5", "1,5,5,20", "1,2,3,4,5,6,7,8,9,10,11,12,13,14,15")
      for fmt in ([], ["--format", "json"])],
    ["bounds", "toronto", "--m", "2,2", "--n", "0.5,2.5", "--r", "1,1",
     "--B", "3", "--terms", "1,5,5", "--format", "json"],
    ["bounds", "nuttall", "--m", "0.2,2", "--n", "1.7,1", "--a", "1,1",
     "--b", "2", "--terms", "1,5"],
    # the same refusal after a good row: the CSV header must still name
    # the refused row's error
    *[["bounds", "nuttall", "--m", "2,0.2", "--n", "1,1.7", "--a", "1",
       "--b", "2", "--terms", "5", *fmt] for fmt in ([], ["--format", "json"])],
    ["bounds", "nuttall", "--m", "3.2", "--n", "2.1", "--a", "1.3",
     "--b", "0.6", "--terms", "1,3"],
    ["bounds", "nuttall", "--m", "9", "--n", "9", "--a", "0.5", "--b", "1"],
    ["bounds", "toronto", "--m", "2", "--n", "1", "--r", "2", "--B", "2"],
    ["bounds", "toronto", "--m", "2", "--n", "1", "--r", "1", "--B", "0",
     "--terms", "1,2"],
    ["bounds", "toronto", "--m", "2", "--n", "1", "--r", "1", "--B", "1e-160",
     "--terms", "3"],
    ["bounds", "nuttall", "--m", "2", "--n", "1", "--a", "1", "--b", "2",
     "--terms", "0,5"],
    ["bounds", "nuttall", "--m", "2", "--n", "1", "--a", "1", "--b", "2",
     "--terms", "500,501"],
    ["bounds", "nuttall", "--m", "2", "--n", "1", "--a", "1", "--b", "2",
     "--terms", "5x"],
    ["bounds", "nuttall", "--m", "2", "--n", "1", "--a", "1", "--b", "2",
     "--terms", "500"],
    *[["bounds", fn, "--kind", "kummer", *grid, *fmt]
      for fn, grid in (("nuttall", _NUTTALL), ("toronto", _TORONTO))
      for fmt in ([], ["--format", "json"])],
    ["bounds", "toronto", "--kind", "kummer", "--m", "0.2", "--n", "1.5",
     "--r", "1", "--B", "1"],
    *[["figure", fig, *fmt] for fig in ("f1", "f2", "f3", "f4")
      for fmt in ([], ["--format", "json"])],
    ["figure", "f4", "--output", "f4.csv"],
    ["figure", "f4", "--output", "missing_dir/f4.csv"],
    ["figure", "f4", "--output", "plain.txt/f4.csv", "--format", "json"],
    ["golden"],
    ["golden", "--format", "json"],
    ["golden", "--path", "mixed_tol.txt"],
    ["golden", "--path", "missing.txt"],
    ["golden", "--path", "bogus_kind.txt"],
    ["golden", "--path", "empty.txt", "--format", "json"],
    ["golden", "--regenerate", "--path", "out/golden.txt"],
    ["golden", "--regenerate", "--path", "plain.txt/x.txt"],
    ["golden", "--regenerate", "--path", "out", "--format", "json"],
    *[[command, "--help"]
      for command in ("eval", "compare", "bounds", "figure", "golden")],
    ["--help"],
    ["eval", "nuttall"],
    ["bounds", "marcum", "--m", "2", "--n", "1"],
    # a missing order is an error record from the grid driver
    ["compare", "nuttall", "--n", "1", "--a", "1", "--b", "1", "--format", "json"],
    ["bounds", "nuttall", "--m", "2", "--a", "1", "--b", "1", "--format", "json"],
    # JSON records: a Toronto value at a B whose square is subnormal, and
    # error records with each exception's payload: an oracle estimate above
    # an absolute tol, a closed form that overflows
    ["eval", "toronto", "--m", "2", "--n", "1", "--r", "1", "--B", "1e-160",
     "--format", "json"],
    ["compare", "nuttall", "--m", "10", "--n", "9", "--a", "6", "--b", "0.5",
     "--format", "json"],
    ["eval", "toronto", "--m", "10", "--n", "0.5", "--r", "1e-200", "--B", "2",
     "--method", "closed_half", "--format", "json"],
    # the second (tanh-sinh) scheme at the t^(m-n) singularity at 0
    # (m - n = -0.496), where the retired Gauss-Legendre scheme converged
    # only algebraically and refused
    ["compare", "toronto", "--m", "0.5043655403318925", "--n", "1",
     "--r", "1.0776352292261235", "--B", "4.459215224518907", "--scheme", "gauss"],
    # the adaptive oracle's hint split: QUADPACK accepts both panels after
    # one rule each, 1,900 times short of the true error
    *[["compare", "toronto", "--m", "0.5", "--n", "1", "--r", "4.09444152999109",
       "--B", "6.319647878439", *fmt] for fmt in ([], ["--format", "json"])],
    # two coarse levels of the second scheme that can agree on a wrong value,
    # having both missed the integrand's narrow peak
    ["compare", "nuttall", "--m", "3.5", "--n", "9.859657406200126",
     "--a", "0.42683455529013425", "--b", "0.24600880845346218",
     "--scheme", "gauss"],
    # compare's tolerances, each set by hand
    ["compare", "nuttall", "--m", "2", "--n", "1", "--a", "1", "--b", "2",
     "--oracle-tol", "1e-10"],
    ["compare", "toronto", "--m", "2", "--n", "1", "--r", "1", "--B", "2",
     "--method", "adaptive", "--tol", "1e-10"],
    # the Nuttall 1F1 bound at m = 0, where c = (m + n + 1)/2 stays positive
    ["compare", "nuttall", "--m", "0", "--n", "0", "--a", "1", "--b", "1",
     "--with-bounds"],
    *[["eval", "nuttall", "--m", "0", "--n", "0", "--a", "1", "--b", "1",
       "--method", "bound_1f1", *fmt] for fmt in ([], ["--format", "json"])],
    ["bounds", "nuttall", "--kind", "kummer", "--m", "0", "--n", "0",
     "--a", "1", "--b", "0,1"],
    # oracle values that underflow to 0, read by golden verify and compare
    *[["golden", "--path", "zero.txt", *fmt] for fmt in ([], ["--format", "json"])],
    ["compare", "toronto", "--m", "2", "--n", "1", "--r", "1", "--B", "1e-307"],
    # a Marcum order below 1, alone and after a good one
    ["eval", "marcum", "--m", "0.5", "--a", "1", "--b", "1"],
    ["compare", "marcum", "--m", "1,0.5", "--a", "1", "--b", "1",
     "--format", "json"],
    # assertion thresholds that no error can pass or fail as asked
    *[["compare", "nuttall", "--m", "2", "--n", "1", "--a", "1", "--b", "1",
       "--assert-rel-err", threshold] for threshold in ("nan", "-1")],
    # one-value options that are not numbers: argparse's usage text, no record
    *[["eval", "nuttall", "--m", "2", "--n", "1", "--a", "1", "--b", "1",
       "--format", "json", flag, "abc"] for flag in ("--terms", "--tol")],
    ["compare", "nuttall", "--m", "2", "--n", "1", "--a", "1", "--b", "1",
     "--assert-rel-err", "abc", "--format", "json"],
    # the second scheme where scipy's ive(0.5, z) underflows to 0 (z below
    # about 1e-305): a wrong value with exit 0 at a = 1e-300, a refusal at
    # a = 5e-324
    ["compare", "nuttall_norm", "--m", "0.5", "--n", "0.5", "--a", "1e-300",
     "--b", "0", "--method", "adaptive", "--scheme", "gauss"],
    ["compare", "nuttall_norm", "--m", "9.5", "--n", "0.5", "--a", "5e-324",
     "--b", "8", "--scheme", "gauss"],
    # the Toronto 1F1 bound at a tiny r, where its power of r overflows
    ["eval", "toronto", "--m", "10", "--n", "0", "--r", "1e-40", "--B", "1",
     "--method", "bound_1f1"],
    ["bounds", "toronto", "--kind", "kummer", "--m", "10", "--n", "0",
     "--r", "1e-40", "--B", "1"],
    # the Toronto oracle at a tiny r, where its prefactor 2 r^(n-m+1)
    # overflows a double (see _FILES)
    *[["golden", "--path", "tiny_r.txt", *fmt] for fmt in ([], ["--format", "json"])],
    # an adaptive oracle Toronto value 2.4e-10 off the true one (149 times
    # its own estimate), printed with exit 0
    ["compare", "toronto", "--m", "0.1096184035539316", "--n", "0",
     "--r", "3.919508021249239", "--B", "7.5329666489315645",
     "--method", "adaptive"],
]

# Files the corpus reads, written to the working directory first.  Entry 3
# of mixed_tol.txt is moved by 1e-10 against a 1e-13 tol; entry 1 keeps a
# loose 1e-6 tol.  bogus_kind.txt holds a valid entry, then one whose kind
# the oracle refuses.  Both entries of zero.txt have an oracle value that
# underflows to 0.  tiny_r.txt holds a Toronto entry at r = 1e-40, where
# the oracle's prefactor 2 r^(n-m+1) is past the double range.
_FILES = {
    "mixed_tol.txt":
        "nuttall 1 0 1 1 1e-6 0.73287980379682016 0\n"
        "nuttall 2 1 1 2 1e-13 0.5301469081839657 0\n",
    "bogus_kind.txt":
        "nuttall 1 0 1 1 1e-6 0.73287980379682016 0\n"
        "bogus 2 1 1 2 1e-13 0.5301469081839657 0\n",
    "empty.txt": "# comments only\n",
    "zero.txt":
        "nuttall 2 2 1e-160 1 1e-13 0 0\n"
        "toronto 2 1 1 1e-307 1e-13 0 0\n",
    "plain.txt": "not a directory\n",
    "tiny_r.txt": "toronto 10 0 1e-40 1 1e-13 0 0\n",
}
# Files the corpus writes, read back after the run.
_OUTPUTS = ("f4.csv", "out/golden.txt")


LIBRARY_SEED = 14


def library_corpus() -> list[str]:
    """The library calls, each a Python expression over the names of
    nuttq.__all__ (and nan, inf), drawn from random.Random(LIBRARY_SEED).

    Points are mostly inside the box (m, n in [0, 10], a, r in (0, 6],
    b, B in [0, 8]), plus the edges where a rule decides the outcome: the
    incomplete gamma branch seam x = a + 1, x = 0, overflow past
    LOG_OVERFLOW, non-finite arguments (an infinite gamma order or
    argument included), high orders with a large scale parameter, and
    a, r = 1e-200 for the closed forms.  The last calls draw nothing: the
    series walks' edges (short partial sums, large tols, unsorted and
    duplicate depths, a B whose square underflows), kernel arguments past
    the kernels' limits, the parameter records' constructors at the values
    where their checks decide and with fields that are not floats, two
    second-scheme (tanh-sinh) oracle reproductions, the Toronto closed
    form at B = 2r, four oracle points where a scheme's own estimate falls
    short, the Nuttall 1F1 bound at m = 0 and where its log passes the
    overflow gate, both 1F1 bounds where only the product of their two
    finite factors overflows, the Marcum oracle at a
    small or subnormal a^(m-1) and outside the box, and the unnormalized
    Nuttall Q from a = 0.1 to 6 and at a subnormal a^n, and the second
    oracle scheme at its Bessel seam, at a = 1e-300 and at a value its
    h = 1/128 level accepts, and the Toronto oracle at r = 1e-40, 6e-35
    and 1e-34, where its prefactor 2 r^(n-m+1) nears the double range;
    the Toronto series where B^2 is below the normal range, depths that
    are not integers, beside integral floats, and the second-scheme values
    accepted at 105 and 417 nodes.
    """
    rng = random.Random(LIBRARY_SEED)
    u = rng.uniform
    calls = []

    def add(template: str, *args) -> None:
        calls.append(template.format(*(repr(a) for a in args)))

    # kernels: the gamma branch seam and its complement, zero, overflow,
    # refused arguments; the scaled Bessel I at zero, overflow and refused
    # arguments
    orders = [0.5, 1.0, 2.5, 7.0, 60.0, 510.5] + [u(0.05, 100.0) for _ in range(40)]
    for a in orders:
        xs = [0.0, a + 1.0, a + 1.0 - 1e-12, a + 1.0 + 1e-12,
              math.nextafter(a + 1.0, 0.0), 2000.0, math.nan, -1.0,
              u(0.0, 2.0 * a + 5.0), u(0.0, 2.0 * a + 5.0)]
        for x in xs:
            for kernel in ("lower_inc_gamma", "upper_inc_gamma",
                           "lower_inc_gamma_log", "upper_inc_gamma_log"):
                add(kernel + "({}, {})", a, x)
    for nu in [0.0, 0.5, 1.5, 2.5, 7.5, 40.0] + [u(0.0, 20.0) for _ in range(20)]:
        for x in (0.0, 1e-300, u(0.0, 3.0), u(0.0, 60.0), 700.0, 800.0,
                  2000.0, -1.0, math.nan):
            add("bessel_i_scaled({}, {})", nu, x)
    # non-finite gamma input, refused before the kernels' step caps
    for a, x in ((2.5, math.inf), (math.inf, 1.0)):
        for kernel in ("lower_inc_gamma", "upper_inc_gamma", "upper_inc_gamma_log"):
            add(kernel + "({}, {})", a, x)
    for nu, x in ((-0.5, 1.0), (math.nan, 1.0), (1.0, math.inf)):
        add("bessel_i_scaled({}, {})", nu, x)
    for _ in range(60):
        add("kummer_1f1({}, {}, {})", u(0.1, 10.0), u(0.5, 11.0), u(0.0, 40.0))
    for a, b, x in ((2.0, 2.0, 800.0), (1.0, -3.0, 2.0), (math.nan, 1.0, 1.0),
                    (1.0, 2.0, -1.0)):
        add("kummer_1f1({}, {}, {})", a, b, x)

    # both series, in the box and at high orders with a large scale
    def nuttall_point():
        return (u(0.0, 10.0), u(0.0, 10.0), u(0.01, 6.0), u(0.0, 8.0))

    def toronto_point():
        n = u(0.0, 10.0)
        return (u(max(0.0, n - 0.99), 10.0), n, u(0.01, 6.0), u(0.01, 8.0))

    for family, point in (("nuttall", nuttall_point),
                          ("toronto", toronto_point)):
        params = family.capitalize() + "Params({}, {}, {}, {})"
        for _ in range(150):
            pt = point()
            add(f"{family}_series_adaptive({params}, tol={{}})", *pt,
                rng.choice([1e-14, 1e-12, 1e-10, 1e-6]))
            add(f"{family}_series_truncated({params}, {{}})", *pt,
                rng.choice([1, 5, 20, 60, 500]))
        for m in (60.0, 200.0, 400.0):
            add(f"{family}_series_adaptive({params})", m, 0.5 * m, 60.0, 30.0)
    for pt in ((300.0, 0.0, 40.0, 1.0), (1300.0, 0.0, 10.0, 20.0)):
        add("nuttall_series_adaptive(NuttallParams({}, {}, {}, {}))", *pt)
        add("toronto_series_adaptive(TorontoParams({}, {}, {}, {}))", *pt)
    add("toronto_series_adaptive(TorontoParams({}, {}, {}, {}))",
        2.0, 1.0, 1.0, 1e-200)

    # closed forms, with their seams b = a and B = r and a, r = 1e-200
    for _ in range(120):
        nu = rng.randrange(0, 10)
        mu = rng.randrange(nu, 10)
        a = u(0.01, 6.0)
        b = rng.choice([a, u(0.0, 8.0)])
        add("nuttall_half_integer_closed(NuttallParams({}, {}, {}, {}))",
            mu + 0.5, nu + 0.5, a, b)
        m = rng.randrange(2 * nu + 1, 2 * nu + 11)
        r = u(0.01, 6.0)
        add("toronto_closed_form_half({}, {}, {}, {})",
            float(m), nu + 0.5, r, rng.choice([r, u(0.01, 8.0)]))
    for m, n, b in ((7.5, 7.5, 8.0), (1.5, 1.5, 2.5), (4.5, 0.5, 1.0)):
        add("nuttall_half_integer_closed(NuttallParams({}, {}, {}, {}))",
            m, n, 1e-200, b)
    add("toronto_closed_form_half({}, {}, {}, {})", 10.0, 0.5, 1e-200, 2.0)

    # bound reports: truncation bounds at several depths and the 1F1
    # bounds; then the Marcum Q
    for _ in range(100):
        depths = sorted(rng.sample([1, 2, 5, 20, 60, 500], rng.randrange(1, 4)))
        add("nuttall_truncation_bounds(NuttallParams({}, {}, {}, {}), {})",
            *nuttall_point(), depths)
        add("toronto_truncation_bounds(TorontoParams({}, {}, {}, {}), {})",
            *toronto_point(), depths)
        add("nuttall_upper_bound_1f1({}, {}, {})", u(0.01, 10.0),
            u(0.0, 10.0), u(0.01, 6.0))
        add("toronto_upper_bound_1f1({}, {}, {})", *toronto_point()[:3])
    for _ in range(20):
        add("marcum_q({}, {}, {})", u(1.0, 10.0), u(0.01, 6.0), u(0.0, 8.0))

    # the oracle, in both schemes
    for scheme in ("adaptive", "gauss"):
        for _ in range(50):
            tol = rng.choice([1e-12, 1e-10, 1e-8])
            add("oracle_nuttall({}, {}, {}, {}, tol={}, scheme={})",
                *nuttall_point(), tol, scheme)
            add("oracle_toronto({}, {}, {}, {}, tol={}, scheme={})",
                *toronto_point(), tol, scheme)
            add("oracle_marcum({}, {}, {}, tol={}, scheme={})", u(1.0, 10.0),
                u(0.01, 6.0), u(0.0, 8.0), tol, scheme)

    # Edge calls that draw nothing, so the seeded calls above keep their
    # arguments: partial sums of 1 to 3 terms, tols so large that the stop
    # rule holds from term 0, unsorted and duplicate depth lists, a Toronto
    # B whose square underflows to 0, and kernel arguments far past where
    # the kernels' iterations can finish.
    for family, pt in (("nuttall", (2.0, 1.0, 3.0, 1.0)),
                       ("nuttall", (4.5, 2.5, 0.5, 2.0)),
                       ("nuttall", (2.0, 1.0, 60.0, 1.0)),
                       ("toronto", (2.0, 1.0, 3.0, 1.0)),
                       ("toronto", (3.0, 1.5, 1.0, 2.0)),
                       ("toronto", (2.0, 1.0, 1.0, 1e-170))):
        params = family.capitalize() + "Params({}, {}, {}, {})"
        for depth in (1, 2, 3):
            add(f"{family}_series_truncated({params}, {{}})", *pt, depth)
        for tol in (0.5, 1.0, 2.0):
            add(f"{family}_series_adaptive({params}, tol={{}})", *pt, tol)
        for depths in ([20, 5, 20], [5, 1, 1], [500, 2, 60, 2], [1]):
            add(f"{family}_truncation_bounds({params}, {{}})", *pt, depths)
    for kernel in ("lower_inc_gamma", "upper_inc_gamma",
                   "lower_inc_gamma_log", "upper_inc_gamma_log"):
        for a, x in ((2.5, 1e308), (100.0, 1e18), (2.5, 2.0 ** 53)):
            add(kernel + "({}, {})", a, x)
    for nu, x in ((0.0, 1e150), (0.0, 1.2e6), (2.5, 9e5)):
        add("bessel_i_scaled({}, {})", nu, x)
    # Constructor edges, drawing nothing either: each value where a check
    # decides in each field of both parameter records, fields that are not
    # floats, and Toronto's integrability edge m - n = -1, on it and 2^-40
    # inside it.
    for record in ("NuttallParams", "TorontoParams"):
        base = (2.0, 1.0, 1.0, 2.0)
        for field in range(4):
            for value in (math.nan, math.inf, -math.inf, -0.0, 0.0, -1e-300,
                          3, None, "2", 2j):
                add(record + "({}, {}, {}, {})",
                    *base[:field], value, *base[field + 1:])
    for m in (1.0, 1.0 + 2.0 ** -40):
        add("TorontoParams({}, {}, {}, {})", m, 2.0, 1.0, 2.0)
    # Toronto's partial sums at depths 1 and 500 where B^2 underflows,
    # drawing nothing either.
    for depth in (1, 500):
        add("toronto_series_truncated(TorontoParams({}, {}, {}, {}), {})",
            2.0, 1.0, 1.0, 1e-170, depth)
    # The Toronto series where B^2 is below the normal range or underflows
    # to 0, at orders where term 0 is normal and where it underflows
    # (m = 2), drawing nothing either.
    for big_b in (1.5e-154, 1e-154, 1e-160, 1e-161, 1e-300, 5e-324):
        for pt in ((0.0, 0.0, 1.0), (0.5, 0.0, 1.0), (2.0, 1.0, 1.0),
                   (0.0, 0.0, 6.0), (10.0, 9.5, 3.0)):
            add("toronto_series_adaptive(TorontoParams({}, {}, {}, {}))",
                *pt, big_b)
        add("toronto_series_truncated(TorontoParams({}, {}, {}, {}), {})",
            0.5, 0.0, 1.0, big_b, 20)
    # Depths that are not integers, and integral floats, drawing nothing
    # either: 2.5 and 3.0.
    for family, pt in (("nuttall", (2.0, 1.0, 1.0, 1.0)),
                       ("toronto", (2.0, 1.0, 1.0, 2.0))):
        params = family.capitalize() + "Params({}, {}, {}, {})"
        for count in (2.5, 3.0):
            add(f"{family}_series_truncated({params}, {{}})", *pt, count)
            add(f"{family}_truncation_bounds({params}, {{}})", *pt, [count])
    # Second-scheme (tanh-sinh) reproductions, drawing nothing either, at
    # two points of the retired Gauss-Legendre scheme: a Nuttall value near
    # 1e6, where its refinement differences grew with the strip count, and
    # a Toronto one with the t^(m-n) singularity at 0, where it converged
    # only algebraically; and the Toronto closed form at B = 2r, where
    # (B - r)^2 equals r^2.
    add("oracle_nuttall({}, {}, {}, {}, scheme={})", 9.747297662154839, 7.0,
        4.61520624372118, 2.275415732502098, "gauss")
    add("oracle_toronto({}, {}, {}, {}, scheme={})", 0.5043655403318925, 1.0,
        1.0776352292261235, 4.459215224518907, "gauss")
    add("toronto_closed_form_half({}, {}, {}, {})", 10.0, 0.5, 1.0, 2.0)
    # the oracle at points where a scheme's own estimate falls short: the
    # adaptive hint split accepted after one rule a panel, two coarse
    # second-scheme levels that agree, and two audit points where scipy's
    # ive is 72-117 ulps off
    add("oracle_toronto({}, {}, {}, {})", 0.5, 1.0, 4.09444152999109,
        6.319647878439)
    for pt in ((3.5, 9.859657406200126, 0.42683455529013425,
                0.24600880845346218),
               (9.0, 7.946609415622109, 2.508233277508591, 5.957047869677489),
               (7.5, 4.765977881269348, 2.401172691481113, 4.214951574263071)):
        add("oracle_nuttall({}, {}, {}, {}, scheme={})", *pt, "gauss")
    # the Nuttall 1F1 bound at m = 0, where c = (m + n + 1)/2 stays positive
    for n, a in ((0.0, 1.0), (3.3, 2.5), (9.0, 6.0), (0.5, 0.1)):
        add("nuttall_upper_bound_1f1({}, {}, {})", 0.0, n, a)
    # and where lgamma(c) takes its log past the double range
    for m, a in ((400.0, 1.0), (1500.0, 0.1)):
        add("nuttall_upper_bound_1f1({}, {}, {})", m, 0.0, a)
    # both 1F1 bounds where the prefactor and the 1F1 factor are finite
    # but their product overflows
    for a in (5.0, 10.0):
        add("nuttall_upper_bound_1f1({}, {}, {})", 300.0, 0.0, a)
    add("toronto_upper_bound_1f1({}, {}, {})", 690.0, 0.0, 5.0)
    # the Marcum oracle at a small a^(m-1), at one below the normal range,
    # and at a scale parameter outside the box
    for pt in ((10.0, 0.01, 1.0), (3.0, 1e-160, 1.0), (2.5, -1.0, 1.0),
               (2.0, math.nan, 1.0)):
        add("oracle_marcum({}, {}, {})", *pt)
    # the unnormalized Nuttall Q, a^n times the normalized series value,
    # at a = 1, at small and large a^n and at a subnormal a^n
    for pt in ((2.0, 1.0, 1.0, 2.0), (3.0, 0.5, 2.0, 1.0),
               (10.0, 10.0, 0.1, 1.0),
               (10.0, 7.0, 4.446722139795593, 5.811847092579054),
               (0.0, 10.0, 6.0, 0.0), (2.0, 2.0, 1e-160, 1.0)):
        add("nuttall_q({}, {}, {}, {})", *pt)
    # the second scheme's Bessel factor where its series meets its Hankel
    # sum, at the Bessel argument z = 40: the integrand peaks there (at
    # x = 6.67 for a = 6, m = 4.5, and at t = r = 4.5 with z = 2 r t), at
    # integer, half-odd and general orders; and at a = 1e-300, where
    # scipy's ive(0.5, a x) underflows to 0
    for n in (0.0, 0.5, 3.3, 9.5, 10.0):
        add("oracle_nuttall({}, {}, {}, {}, scheme={})", 4.5, n, 6.0, 4.0,
            "gauss")
        add("oracle_toronto({}, {}, {}, {}, scheme={})", n + 1.0, n, 4.5, 6.0,
            "gauss")
    add("oracle_nuttall({}, {}, {}, {}, scheme={})", 0.5, 0.5, 1e-300, 0.0,
        "gauss")
    # a second-scheme value accepted at h = 1/128 (833 nodes); at tol 1e-14
    # no box point of a 40,000-point search reached h = 1/256
    add("oracle_nuttall({}, {}, {}, {}, tol={}, scheme={})", 2.210052415685765,
        4.826134880079131, 5.701758822019991, 0.4198386589114511, 1e-14,
        "gauss")
    add("oracle_marcum({}, {}, {}, scheme={})", 1.5, 1e-300, 0.0, "gauss")
    # the Toronto oracle's prefactor 2 r^(n-m+1) at a tiny r: the power past
    # the double range (r = 1e-40), only the product by 2 past it (6e-35),
    # and both inside it (1e-34)
    for r in (1e-40, 6e-35, 1e-34):
        for scheme in ("adaptive", "gauss"):
            add("oracle_toronto({}, {}, {}, {}, scheme={})", 10.0, 0.0, r, 1.0,
                scheme)
    # second-scheme values accepted at 105 and 417 nodes, whose last bits
    # move with numpy's SIMD dispatch and the BLAS kernel, so that only
    # this diff on one host guards them
    add("oracle_toronto({}, {}, {}, {}, scheme={})", 2.0, 1.0, 1.0, 3.0,
        "gauss")
    add("oracle_toronto({}, {}, {}, {}, scheme={})", 2.0, 1.0, 2.0, 2.0,
        "gauss")
    add("oracle_nuttall({}, {}, {}, {}, tol={}, scheme={})", 2.0, 3.3, 5.0,
        0.0, 1e-14, "gauss")
    return calls


# the start of a library result whose call reads names the checkout lacks
_MISSING = "not in nuttq.__all__: "


def _run_library() -> list[str]:
    """Evaluate library_corpus() against the nuttq on sys.path: each call's
    repr, or its exception's type, message and attributes, or, for a call
    reading a name that is not in nuttq.__all__ (nor nan or inf), those
    names, without evaluating it."""
    import nuttq

    names = {name: getattr(nuttq, name) for name in nuttq.__all__}
    names.update(nan=math.nan, inf=math.inf)
    known = set(names)
    results = []
    for call in library_corpus():
        tree = ast.parse(call, mode="eval")
        missing = sorted({node.id for node in ast.walk(tree)
                          if isinstance(node, ast.Name)} - known)
        if missing:
            results.append(_MISSING + " ".join(missing))
            continue
        try:
            results.append(repr(eval(call, names)))  # noqa: S307 - our corpus
        except Exception as exc:  # noqa: BLE001 - recorded, not hidden
            results.append(f"{type(exc).__name__}: {exc} "
                           f"{sorted(vars(exc).items())!r}")
    return results


def code_lines(path: Path) -> int:
    """Lines of path holding code: no blank, comment-only or docstring line."""
    source = path.read_text()
    docstring_lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstring_lines.update(range(first.lineno, first.end_lineno + 1))
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
    lines = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in skip:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines)


def _run_corpus() -> dict:
    """Run CORPUS in-process in the current directory; one record each."""
    import nuttq
    from nuttq.cli import main

    for name, text in _FILES.items():
        Path(name).write_text(text)
    records = []
    for argv in CORPUS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse: usage errors and --help
                code = exc.code
            except Exception as exc:  # noqa: BLE001 - recorded, not hidden
                code = "uncaught " + traceback.format_exception_only(
                    type(exc), exc)[-1].strip()
        records.append({"argv": argv, "code": code, "stdout": out.getvalue(),
                        "stderr": err.getvalue()})
    files = {name: Path(name).read_text() if Path(name).is_file() else None
             for name in _OUTPUTS}
    return {"nuttq": nuttq.__file__, "names": sorted(nuttq.__all__),
            "records": records, "files": files, "library": _run_library()}


# a decimal with a point or an exponent: the fields a change of value moves
_FLOAT = re.compile(r"[-+]?(?:\d+\.\d*(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+)")


def _float_only(old: str, new: str) -> float | None:
    """The largest relative difference between the floats of old and new if
    nothing else in them differs, else None."""
    if _FLOAT.split(old) != _FLOAT.split(new):
        return None
    worst = 0.0
    for a, b in zip(map(float, _FLOAT.findall(old)),
                    map(float, _FLOAT.findall(new))):
        if a != b:
            worst = max(worst, abs(a - b) / max(abs(a), abs(b)))
    return worst


def _corpus_of(checkout: Path) -> dict:
    src = (checkout / "src").resolve()
    env = dict(os.environ, PYTHONPATH=str(src), COLUMNS="80")
    with tempfile.TemporaryDirectory() as work:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--worker"], cwd=work, env=env,
                              capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"corpus run failed in {checkout}:\n{proc.stderr}")
    result = json.loads(proc.stdout)
    if not Path(result["nuttq"]).resolve().is_relative_to(src):
        raise SystemExit(f"{checkout}: imported nuttq from {result['nuttq']}")
    return result


def main(argv: list[str]) -> int:
    if argv == ["--worker"]:
        json.dump(_run_corpus(), sys.stdout)
        return 0
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    parent, change = (Path(a) for a in argv)
    names = sorted({p.name for c in (parent, change)
                    for p in (c / "src" / "nuttq").glob("*.py")})
    print(f"{'code lines':<16}{'parent':>8}{'change':>8}")
    totals = [0, 0]
    for name in names:
        counts = [code_lines(c / "src" / "nuttq" / name)
                  if (c / "src" / "nuttq" / name).exists() else 0
                  for c in (parent, change)]
        totals = [t + c for t, c in zip(totals, counts)]
        print(f"{name:<16}{counts[0]:>8}{counts[1]:>8}")
    print(f"{'total':<16}{totals[0]:>8}{totals[1]:>8}")

    before, after = _corpus_of(parent), _corpus_of(change)
    calls = library_corpus()
    dead = [(call, old) for call, old, new
            in zip(calls, before["library"], after["library"])
            if old.startswith(_MISSING) and new.startswith(_MISSING)]
    for call, old in dead:
        print(f"DEAD (names missing in both checkouts): {call}\n    {old}",
              file=sys.stderr)
    if dead:
        return 2
    # name -> [differ, differ only in floats, largest relative difference]
    summary: dict[str, list] = {}

    def tally(name: str, old: str, new: str) -> None:
        counts = summary.setdefault(name, [0, 0, 0.0])
        counts[0] += 1
        worst = _float_only(old, new)
        if worst is not None:
            counts[1] += 1
            counts[2] = max(counts[2], worst)

    def record_text(rec: dict) -> str:
        return f"{rec['code']}\n{rec['stdout']}\n{rec['stderr']}"

    old_names, new_names = set(before["names"]), set(after["names"])
    for name in sorted(old_names - new_names):
        print(f"DIFFERS: public name {name} dropped from nuttq.__all__")
    for name in sorted(new_names - old_names):
        print(f"DIFFERS: public name {name} added to nuttq.__all__")
    differ = len(old_names ^ new_names)
    for old, new in zip(before["records"], after["records"]):
        fields = [k for k in ("code", "stdout", "stderr") if old[k] != new[k]]
        if fields:
            differ += 1
            print(f"DIFFERS ({', '.join(fields)}): nuttq {' '.join(old['argv'])}")
            if "code" in fields:
                print(f"    exit {old['code']} -> {new['code']}")
            tally("nuttq " + " ".join(old["argv"][:2]), record_text(old),
                  record_text(new))
    for name in _OUTPUTS:
        old, new = before["files"][name], after["files"][name]
        if old != new:
            differ += 1
            print(f"DIFFERS: written file {name}")
            tally(f"written file {name}", str(old), str(new))
    calls_differ = 0
    for call, old, new in zip(calls, before["library"], after["library"]):
        if old != new:
            calls_differ += 1
            print(f"DIFFERS: {call}\n    {old}\n -> {new}")
            tally(call.split("(", 1)[0], old, new)
    for name, (n, floats, worst) in sorted(summary.items()):
        print(f"SUMMARY {name}: {n} differ, {floats} only in float fields, "
              f"largest relative difference {worst:.2g}")
    print(f"{len(new_names)} public names, {len(CORPUS)} invocations, "
          f"{len(_OUTPUTS)} written files, {differ} differ; "
          f"{len(calls)} library calls, {calls_differ} differ")
    return 1 if differ or calls_differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
