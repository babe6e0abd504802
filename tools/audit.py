"""Correctness audit: values right, refused and wrong with exit 0, per method.

    python tools/audit.py            # print the table
    python tools/audit.py --check    # also exit 1 if a wrong or an exit-3
                                     # refusal count rose

Each row sweeps one method over seeded in-domain box points and checks
every value against the 50-digit mpmath reference of
``perfbench/reference.py``, which shares no code with the package:

- right: within the method's promise of the reference;
- refused: the call raised one of the package's typed errors, which the
  CLI turns into exit 2 (DomainError) or exit 3 (the rest);
- wrong, exit 0: any other value, a non-finite one included.

The closed-form rows check the two half-odd closed forms, at the rounded
orders a truncation-bound report evaluates them at: Nuttall at
(ceil_half(m), ceil_half(n), a, b), Toronto at (ceil(m), floor_half(n), r,
B).  Their promise is RTOL (relative).  Points are drawn from
random.Random(SEED) like the box's points elsewhere: orders integer,
half-odd or general with equal odds in [0, 10], a and r in (0, 6], b in
[0, 8] (0 one time in 20), B in (0, 8], and Toronto's m - n > -1.  Draws
whose rounded orders lie outside the closed form's domain are skipped
until POINTS points per family are in it.

The oracle rows check oracle_nuttall (unnormalized Q) and oracle_toronto
at their default tol, in both schemes, on the first ORACLE_POINTS box
points drawn the same way, unrounded and none skipped.  Their promise is
the oracle's own: abs_err_est plus ORACLE_ULPS ulps of the value.

The normalized oracle rows check the value ``nuttq compare nuttall_norm``
prints, ``nuttq.cli._oracle_for`` at ORACLE_TOL, in both schemes (gauss is
compare's default, adaptive its ``--scheme adaptive``), on the first POINTS
box points drawn the same way.  The CLI prints no error estimate, so their
promise is the tolerance: ORACLE_TOL plus ORACLE_ULPS ulps of the
reference.

The 1F1 bound rows check nuttall_upper_bound_1f1 and
toronto_upper_bound_1f1 on the first POINTS box points drawn the same way,
none skipped (the bound takes no b or B).  Their promise is RTOL against
the reference's own 1F1 bound formula.

WRONG holds the wrong counts at SEED and REFUSED_EXIT3 the exit-3
refusal counts, as ratchets: --check fails when a count rises above
its committed number.  A change that lowers a count lowers the committed
number with it.  The reference is nearly all of the time, so the points
are judged in WORKERS processes: about 8 s on 2 vCPUs.  Needs mpmath
besides the package's own numpy and scipy; offline.
"""

from __future__ import annotations

import argparse
import collections
import functools
import itertools
import math
import multiprocessing
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import reference  # noqa: E402
from nuttq.box import ORACLE_TOL  # noqa: E402
from nuttq.cli import _oracle_for  # noqa: E402
from nuttq.errors import (  # noqa: E402
    DomainError,
    NonConvergenceError,
    TermOverflowError,
    ToleranceNotMetError,
)
from nuttq.nuttall import (  # noqa: E402
    NuttallParams,
    nuttall_half_integer_closed,
    nuttall_upper_bound_1f1,
)
from nuttq.oracle import oracle_nuttall, oracle_toronto  # noqa: E402
from nuttq.special import ceil_half, floor_half  # noqa: E402
from nuttq.toronto import (  # noqa: E402
    toronto_closed_form_half,
    toronto_upper_bound_1f1,
)

SEED = 2101
POINTS = 1000
ORACLE_POINTS = 100
RTOL = 1e-8
ORACLE_ULPS = 64
EPS = 2.0 ** -52
WORKERS = 2
VERDICTS = ("right", "refused_exit2", "refused_exit3", "wrong_exit0")
# committed wrong-with-exit-0 counts at SEED and each row's point count
WRONG = {"nuttall closed_half": 26, "toronto closed_half": 103,
         "nuttall oracle adaptive": 0, "nuttall oracle gauss": 0,
         "toronto oracle adaptive": 1, "toronto oracle gauss": 0,
         "nuttall_norm oracle adaptive": 0, "nuttall_norm oracle gauss": 0,
         "nuttall bound_1f1": 0, "toronto bound_1f1": 0}
# committed refused-with-exit-3 counts at SEED: every row's is 0
REFUSED_EXIT3 = dict.fromkeys(WRONG, 0)


def _order(rng: random.Random) -> float:
    kind = rng.randrange(3)
    if kind == 0:
        return float(rng.randint(0, 10))
    if kind == 1:
        return rng.randint(0, 9) + 0.5
    return rng.uniform(0.0, 10.0)


def nuttall_points(rng: random.Random):
    """Endless (m, n, a, b) at rounded orders inside the closed form's
    domain, m >= n."""
    while True:
        m, n = ceil_half(_order(rng)), ceil_half(_order(rng))
        a = 6.0 * (1.0 - rng.random())
        b = 0.0 if rng.random() < 0.05 else 8.0 * (1.0 - rng.random())
        if m >= n:
            yield m, n, a, b


def toronto_points(rng: random.Random):
    """Endless (m, n, r, B) at rounded orders inside the closed form's
    domain: half-odd n >= 1/2 and integer m >= 2n."""
    while True:
        n = _order(rng)
        m = _order(rng)
        while not m - n > -1.0:
            m = _order(rng)
        mc, nf = float(math.ceil(m)), floor_half(n)
        r = 6.0 * (1.0 - rng.random())
        big_b = 8.0 * (1.0 - rng.random())
        if nf >= 0.5 and mc >= 2.0 * nf:
            yield mc, nf, r, big_b


def nuttall_box_points(rng: random.Random):
    """Endless (m, n, a, b) in the box."""
    while True:
        m, n = _order(rng), _order(rng)
        a = 6.0 * (1.0 - rng.random())
        b = 0.0 if rng.random() < 0.05 else 8.0 * (1.0 - rng.random())
        yield m, n, a, b


def toronto_box_points(rng: random.Random):
    """Endless (m, n, r, B) in the box with m - n > -1."""
    while True:
        n = _order(rng)
        m = _order(rng)
        while not m - n > -1.0:
            m = _order(rng)
        yield m, n, 6.0 * (1.0 - rng.random()), 8.0 * (1.0 - rng.random())


def _within_rtol(got: float, want: float) -> bool:
    return math.isfinite(got) and abs(got - want) <= RTOL * abs(want)


def _within_promise(ov, want: float) -> bool:
    # the oracle's own promise: its error estimate plus rounding
    return (math.isfinite(ov.value) and abs(ov.value - want)
            <= ov.abs_err_est + ORACLE_ULPS * EPS * abs(ov.value))


def _within_tol(got: float, want: float) -> bool:
    return (math.isfinite(got) and abs(got - want)
            <= ORACLE_TOL + ORACLE_ULPS * EPS * abs(want))


def _nuttall_unnormalized(m, n, a, b):
    return reference.golden_value("nuttall", m, n, a, b)


def _without_limit(f):
    """f(m, n, a_or_r) called with a box point (m, n, a_or_r, b_or_B)."""
    return lambda m, n, p3, p4: f(m, n, p3)


# name, points, how many, value, reference, whether a value is right
ROWS = (
    ("nuttall closed_half", nuttall_points, POINTS,
     lambda m, n, a, b: nuttall_half_integer_closed(NuttallParams(m, n, a, b)),
     reference.nuttall_norm, _within_rtol),
    ("toronto closed_half", toronto_points, POINTS, toronto_closed_form_half,
     reference.toronto, _within_rtol),
    *((f"{family} oracle {scheme}", points, ORACLE_POINTS,
       functools.partial(oracle, scheme=scheme), ref, _within_promise)
      for family, points, oracle, ref in (
          ("nuttall", nuttall_box_points, oracle_nuttall, _nuttall_unnormalized),
          ("toronto", toronto_box_points, oracle_toronto, reference.toronto))
      for scheme in ("adaptive", "gauss")),
    *((f"nuttall_norm oracle {scheme}", nuttall_box_points, POINTS,
       functools.partial(_oracle_for, "nuttall_norm", tol=ORACLE_TOL,
                         scheme=scheme),
       reference.nuttall_norm, _within_tol)
      for scheme in ("adaptive", "gauss")),
    *((f"{family} bound_1f1", points, POINTS, _without_limit(bound),
       _without_limit(ref), _within_rtol)
      for family, points, bound, ref in (
          ("nuttall", nuttall_box_points, nuttall_upper_bound_1f1,
           reference.nuttall_bound_1f1),
          ("toronto", toronto_box_points, toronto_upper_bound_1f1,
           reference.toronto_bound_1f1))),
)


def sweep() -> list[tuple[int, tuple]]:
    """(row index, point) for the first points of every row."""
    return [(i, args) for i, (_, points, count, *_) in enumerate(ROWS)
            for args in itertools.islice(points(random.Random(SEED)), count)]


def judge(task: tuple[int, tuple]) -> str:
    """The verdict on one row's value at one point."""
    row, args = task
    _, _, _, value, ref, right = ROWS[row]
    try:
        got = value(*args)
    except DomainError:
        return "refused_exit2"
    except (NonConvergenceError, TermOverflowError, ToleranceNotMetError):
        return "refused_exit3"
    return "right" if right(got, ref(*args)) else "wrong_exit0"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="exit 1 if a wrong count rose above WRONG "
                             "or an exit-3 count above REFUSED_EXIT3")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    tasks = sweep()
    # the 50-digit reference is nearly all of the time, so split it
    with multiprocessing.Pool(WORKERS) as pool:
        verdicts = pool.map(judge, tasks, chunksize=25)
    counts = [collections.Counter() for _ in ROWS]
    for (row, _), verdict in zip(tasks, verdicts):
        counts[row][verdict] += 1
    print(f"# seed={SEED} points={POINTS} (oracle rows {ORACLE_POINTS}) "
          f"rtol={RTOL:g} oracle_ulps={ORACLE_ULPS}")
    print("method," + ",".join(VERDICTS)
          + ",committed_wrong_exit0,committed_refused_exit3")
    rose = []
    for (name, *_), c in zip(ROWS, counts):
        print(",".join([name, *(str(c[v]) for v in VERDICTS), str(WRONG[name]),
                        str(REFUSED_EXIT3[name])]))
        rose += [f"{name} {verdict}" for verdict, committed in (
            ("wrong_exit0", WRONG), ("refused_exit3", REFUSED_EXIT3))
            if c[verdict] > committed[name]]
    print(f"# {time.perf_counter() - start:.1f} s")
    if args.check and rose:
        print(f"# count rose: {', '.join(rose)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
