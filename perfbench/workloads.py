"""Seeded input generators for the three workloads.

Every generator is an endless stream drawn from ``random.Random(seed)``, so
the worker that times the ops and the parent that checks them regenerate
the same inputs from the seed alone.  All points lie inside the box the
package validates: m, n in [0, 10], a, r in (0, 6], b in [0, 8], B in (0, 8].
Stdlib only: the worker imports this before timing starts.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator

WORKLOADS = ("series_box", "crosscheck", "cli_cold")

ORDER_MAX = 10.0
SCALE_MAX = 6.0
LIMIT_MAX = 8.0

# adaptive-series tolerances: half the draws at the 1e-12 default, the rest
# spread over the range callers use, down to the series' 1e-14 floor
SERIES_TOLS = (1e-12,) * 6 + (1e-14, 1e-13, 1e-11, 1e-10, 1e-8, 1e-6)

CROSSCHECK_TERMS = 20        # compare's default --terms
CROSSCHECK_ORACLE_TOL = 1e-10  # compare's default --oracle-tol
GAUSS_EVERY = 5              # every fifth grid uses the Gauss-Legendre scheme

# cli_cold runs in blocks of ten invocations with a fixed mix, so every
# block has the same composition whatever the seed
CLI_BLOCK = ("eval",) * 6 + ("compare", "bounds", "figure", "golden")

FUNCTIONS = ("nuttall", "nuttall_norm", "marcum", "toronto")


def _order(rng: random.Random, lo: float = 0.0) -> float:
    """An order in [lo, 10]: integer, half-odd or general with equal odds."""
    kind = rng.randrange(3)
    if kind == 0:
        return float(rng.randint(int(lo + 0.5), int(ORDER_MAX)))
    if kind == 1:
        return rng.randint(int(lo), int(ORDER_MAX) - 1) + 0.5
    return rng.uniform(lo, ORDER_MAX)


def _scale(rng: random.Random) -> float:
    return SCALE_MAX * (1.0 - rng.random())          # (0, 6]


def _limit(rng: random.Random, allow_zero: bool) -> float:
    if allow_zero and rng.random() < 0.05:
        return 0.0
    return LIMIT_MAX * (1.0 - rng.random())          # (0, 8]


def _orders(rng: random.Random, fn: str) -> tuple[float, float]:
    """(m, n) for fn; Marcum carries n = m - 1, Toronto keeps m - n > -1."""
    if fn == "marcum":
        m = _order(rng, lo=1.0)
        return m, m - 1.0
    n = _order(rng)
    m = _order(rng)
    while fn == "toronto" and not m - n > -1.0:
        m = _order(rng)
    return m, n


def _deck(rng: random.Random, items: tuple) -> Iterator:
    """Endless shuffled passes over items: exact shares in every pass, so
    the mix, and with it the mean cost of an op, varies little by seed."""
    while True:
        deck = list(items)
        rng.shuffle(deck)
        yield from deck


def series_box(seed: int) -> Iterator[tuple]:
    """One op: (fn, m, n, a_or_r, b_or_B, tol) for one adaptive-series value.

    fn is 'nuttall' (nuttall_series_adaptive), 'marcum' (marcum_q) or
    'toronto' (toronto_series_adaptive) in equal shares; points and orders
    are drawn independently per op.
    """
    rng = random.Random(f"series_box:{seed}")
    fns = _deck(rng, ("nuttall", "marcum", "toronto"))
    tols = _deck(rng, SERIES_TOLS)
    while True:
        fn = next(fns)
        m, n = _orders(rng, fn)
        yield (fn, m, n, _scale(rng), _limit(rng, fn != "toronto"), next(tols))


def crosscheck(seed: int) -> Iterator[tuple]:
    """One op: (fn, m, n, a_or_r, b_or_B, scheme), one point of a grid.

    Grids are cartesian like `nuttq compare`: one (m, n) pair times two or
    three scale values times one or two limits, so points of a grid share
    their orders and limit.  The four functions take turns by grid.
    """
    rng = random.Random(f"crosscheck:{seed}")
    fns = _deck(rng, FUNCTIONS)
    for grid in itertools.count():
        fn = next(fns)
        m, n = _orders(rng, fn)
        scales = [_scale(rng) for _ in range(rng.randint(2, 3))]
        limits = [_limit(rng, fn != "toronto") for _ in range(rng.randint(1, 2))]
        scheme = "gauss" if grid % GAUSS_EVERY == GAUSS_EVERY - 1 else "adaptive"
        for p3 in scales:
            for p4 in limits:
                yield (fn, m, n, p3, p4, scheme)


def _fmt(x: float) -> str:
    return format(x, ".17g")


def _point_args(fn: str, m: float, n: float, p3s: list[float],
                p4s: list[float]) -> list[str]:
    names = ("--r", "--B") if fn == "toronto" else ("--a", "--b")
    args = ["--m", _fmt(m)]
    if fn != "marcum":
        args += ["--n", _fmt(n)]
    return args + [names[0], ",".join(map(_fmt, p3s)),
                   names[1], ",".join(map(_fmt, p4s))]


def cli_cold(seed: int) -> Iterator[list[str]]:
    """One op: the argv of one `nuttq` invocation.

    Blocks of CLI_BLOCK in seeded order: six single-point `eval`s (adaptive
    at a drawn tol, or 20-term truncated), a 2x2-point `compare`, a 2x2-point
    truncation `bounds`, one `figure` and a `golden` verify.
    """
    rng = random.Random(f"cli_cold:{seed}")
    while True:
        block = list(CLI_BLOCK)
        rng.shuffle(block)
        for cmd in block:
            if cmd == "eval":
                fn = rng.choice(FUNCTIONS)
                m, n = _orders(rng, fn)
                argv = ["eval", fn] + _point_args(
                    fn, m, n, [_scale(rng)], [_limit(rng, fn != "toronto")])
                if rng.random() < 0.8:
                    argv += ["--method", "adaptive", "--tol",
                             _fmt(rng.choice(SERIES_TOLS))]
                else:
                    argv += ["--method", "truncated", "--terms", "20"]
            elif cmd == "compare":
                fn = rng.choice(FUNCTIONS)
                m, n = _orders(rng, fn)
                argv = ["compare", fn] + _point_args(
                    fn, m, n, [_scale(rng) for _ in range(2)],
                    [_limit(rng, fn != "toronto") for _ in range(2)])
            elif cmd == "bounds":
                fn = rng.choice(("nuttall", "toronto"))
                m, n = _orders(rng, fn)
                argv = ["bounds", fn] + _point_args(
                    fn, m, n, [_scale(rng) for _ in range(2)],
                    [_limit(rng, fn != "toronto") for _ in range(2)])
            elif cmd == "figure":
                argv = ["figure", rng.choice(("f1", "f2", "f3", "f4"))]
            else:
                argv = ["golden"]
            yield argv


def generator(workload: str, seed: int) -> Iterator:
    return {"series_box": series_box, "crosscheck": crosscheck,
            "cli_cold": cli_cold}[workload](seed)


def repeat_frac(ops: list[tuple]) -> float:
    """Share of ops whose (fn, m, n, b) or (fn, m, n, B) an earlier op had."""
    seen = set()
    repeats = 0
    for op in ops:
        key = (op[0], op[1], op[2], op[4])
        repeats += key in seen
        seen.add(key)
    return repeats / len(ops) if ops else 0.0
