"""Command line surface: evaluate, compare against the oracle, emit bounds
and figure data as CSV or JSON.

Output contract: deterministic byte-identical records for identical
invocations.  CSV rows use 17-significant-digit decimals, `#` metadata lines
echo the inputs, and a trailing summary carries grid-level aggregates.  JSON
mode emits one object per line with a "type" tag (meta, row, summary).

Exit codes: 0 success, 1 assertion failure (--assert-rel-err or a violated
bound), 2 domain error, 3 non-convergence or unmet tolerance.

Only the subcommands that need an oracle value (compare, figure f1, golden)
import the quadrature oracle and with it numpy and scipy; eval, bounds and
the other figures run on the stdlib-only series route.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Any, Iterable

from .box import LIMIT_MAX, ORDER_MAX, SCALE_MAX
from .errors import (
    DomainError,
    NonConvergenceError,
    TermOverflowError,
    ToleranceNotMetError,
)
from .nuttall import (
    NuttallParams,
    marcum_q,
    nuttall_half_integer_closed,
    nuttall_series_adaptive,
    nuttall_series_truncated,
    nuttall_truncation_bound,
    nuttall_upper_bound_1f1,
)
from .toronto import (
    TorontoParams,
    toronto_closed_form_half,
    toronto_marcum_residual,
    toronto_series_adaptive,
    toronto_series_truncated,
    toronto_t,
    toronto_truncation_bound,
    toronto_upper_bound_1f1,
)

FUNCTIONS = ("nuttall", "nuttall_norm", "marcum", "toronto")
SLACK_GATE = -1e-8


def _fmt(x: Any) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


class Emitter:
    """Writes meta lines, one header, rows, and a summary in csv or json."""

    def __init__(self, fmt: str, out):
        self.fmt = fmt
        self.out = out
        self.columns: list[str] | None = None

    def meta(self, **kv):
        if self.fmt == "csv":
            body = " ".join(f"{k}={_fmt(v)}" for k, v in kv.items())
            print(f"# {body}", file=self.out)
        else:
            print(json.dumps({"type": "meta", **kv}, sort_keys=True), file=self.out)

    def row(self, record: dict):
        if self.fmt == "csv":
            if self.columns is None:
                self.columns = list(record)
                print(",".join(self.columns), file=self.out)
            print(",".join(_fmt(record.get(c)) for c in self.columns), file=self.out)
        else:
            print(json.dumps({"type": "row", **record}, sort_keys=True), file=self.out)

    def summary(self, **kv):
        if self.fmt == "csv":
            body = " ".join(f"{k}={_fmt(v)}" for k, v in kv.items())
            print(f"# summary {body}", file=self.out)
        else:
            print(json.dumps({"type": "summary", **kv}, sort_keys=True), file=self.out)


def _float_list(text: str) -> list[float]:
    items = [s for s in text.split(",") if s.strip()]
    if not items:
        raise DomainError(f"empty value list: {text!r}")
    return [float(s) for s in items]


def _int_list(text: str) -> list[int]:
    return [int(s) for s in text.split(",") if s.strip()]


def _pairs(ms: list[float], ns: list[float]) -> list[tuple[float, float]]:
    if len(ms) != len(ns):
        raise DomainError(
            f"--m and --n must pair up, got {len(ms)} vs {len(ns)} values")
    return list(zip(ms, ns))


def _norm_series(function: str, m: float, n: float, method: str,
                 terms: int, tol: float, p3: float, p4: float,
                 max_terms: int = 10_000):
    """Normalized-series result plus the factor turning it into the output
    scale of `function` (a^n for unnormalized nuttall, 1 otherwise)."""
    if function == "toronto":
        p = TorontoParams(m, n, p3, p4)
        res = (toronto_series_truncated(p, terms) if method == "truncated"
               else toronto_series_adaptive(p, tol=tol, max_terms=max_terms))
        return res, 1.0
    p = NuttallParams(m, n, p3, p4)
    res = (nuttall_series_truncated(p, terms) if method == "truncated"
           else nuttall_series_adaptive(p, tol=tol, max_terms=max_terms))
    scale = p3 ** n if function == "nuttall" else 1.0
    return res, scale


def _result_orders(function: str, args) -> tuple[float, float]:
    if function == "marcum":
        return args.m, args.m - 1.0
    return args.m, args.n


def _require(args, names: tuple[str, ...]) -> None:
    missing = [f"--{nm}" for nm in names if getattr(args, nm) is None]
    if missing:
        raise DomainError(
            f"{args.function} needs {', '.join(missing)}")


def _check_box(m: float, n: float, p3: float, p4: float) -> None:
    # keep CLI requests inside the window the oracle is validated on, so
    # every emitted value stays cross-checkable
    if not (0.0 <= m <= ORDER_MAX and 0.0 <= n <= ORDER_MAX):
        raise DomainError(f"orders must lie in [0, {ORDER_MAX}], got m={m}, n={n}")
    if not (0.0 < p3 <= SCALE_MAX):
        raise DomainError(f"scale parameter must lie in (0, {SCALE_MAX}], got {p3}")
    if not (0.0 <= p4 <= LIMIT_MAX):
        raise DomainError(f"limit parameter must lie in [0, {LIMIT_MAX}], got {p4}")


def cmd_eval(args) -> int:
    out = Emitter(args.format, sys.stdout)
    fn = args.function
    if fn == "toronto":
        _require(args, ("n", "r", "B"))
    elif fn == "marcum":
        _require(args, ("a", "b"))
    else:
        _require(args, ("n", "a", "b"))
    m, n = _result_orders(fn, args)
    p3 = args.r if fn == "toronto" else args.a
    p4 = args.B if fn == "toronto" else args.b
    _check_box(m, n, p3, p4)
    out.meta(command="eval", function=fn, method=args.method, m=m, n=n,
             **({"r": p3, "B": p4} if fn == "toronto" else {"a": p3, "b": p4}),
             terms=args.terms, tol=args.tol)
    record: dict[str, Any] = {"function_id": fn, "method": args.method,
                              "m": m, "n": n,
                              ("r" if fn == "toronto" else "a"): p3,
                              ("B" if fn == "toronto" else "b"): p4}
    if args.method in ("truncated", "adaptive"):
        res, scale = _norm_series(fn, m, n, args.method, args.terms, args.tol,
                                  p3, p4, max_terms=args.max_terms)
        record.update(value=res.value * scale, terms_used=res.terms_used,
                      last_term_abs=res.last_term_abs, converged=res.converged)
    elif args.method == "closed_half":
        if fn == "toronto":
            record["value"] = toronto_closed_form_half(m, n, p3, p4)
        else:
            v = nuttall_half_integer_closed(NuttallParams(m, n, p3, p4))
            record["value"] = v * (p3 ** n if fn == "nuttall" else 1.0)
    else:  # bound_1f1
        if fn == "toronto":
            record["value"] = toronto_upper_bound_1f1(m, n, p3)
        else:
            v = nuttall_upper_bound_1f1(m, n, p3)
            record["value"] = v * (p3 ** n if fn == "nuttall" else 1.0)
    out.row(record)
    return 0


def _oracle_for(function: str, m: float, n: float, p3: float, p4: float,
                tol: float, scheme: str) -> float:
    from .oracle import oracle_marcum, oracle_nuttall, oracle_toronto

    if function == "toronto":
        return oracle_toronto(m, n, p3, p4, tol=tol, scheme=scheme).value
    if function == "marcum":
        return oracle_marcum(m, p3, p4, tol=tol, scheme=scheme).value
    ov = oracle_nuttall(m, n, p3, p4, tol=tol, scheme=scheme).value
    return ov if function == "nuttall" else ov / p3 ** n


def cmd_compare(args) -> int:
    out = Emitter(args.format, sys.stdout)
    fn = args.function
    if fn == "marcum":
        pairs = [(mv, mv - 1.0) for mv in _float_list(args.m)]
    else:
        pairs = _pairs(_float_list(args.m), _float_list(args.n))
    p3s = _float_list(args.r if fn == "toronto" else args.a)
    p4s = _float_list(args.B if fn == "toronto" else args.b)
    points = [(m, n, p3, p4) for (m, n) in pairs for p3 in p3s for p4 in p4s]
    if not points:
        raise DomainError("empty grid")
    if len(points) > 10_000:
        raise DomainError(f"grid too large: {len(points)} > 10000 points")
    for pt in points:
        _check_box(*pt)
    out.meta(command="compare", function=fn, method=args.method,
             terms=args.terms, tol=args.tol, oracle_tol=args.oracle_tol,
             scheme=args.scheme, points=len(points))

    def compute(pt):
        m, n, p3, p4 = pt
        res, scale = _norm_series(fn, m, n, args.method, args.terms, args.tol,
                                  p3, p4)
        series = res.value * scale
        oracle = _oracle_for(fn, m, n, p3, p4, args.oracle_tol, args.scheme)
        rel = abs(series - oracle) / abs(oracle) if oracle != 0.0 else math.inf
        rec = {"function_id": fn, "m": m, "n": n,
               ("r" if fn == "toronto" else "a"): p3,
               ("B" if fn == "toronto" else "b"): p4,
               "series_value": series, "oracle_value": oracle,
               "rel_error": rel, "terms": res.terms_used}
        if args.with_bounds:
            try:
                if fn == "toronto":
                    rec["bound_1f1"] = toronto_upper_bound_1f1(m, n, p3)
                    rec["trunc_bound"] = toronto_truncation_bound(
                        TorontoParams(m, n, p3, p4), args.terms).bound_value
                else:
                    b1 = nuttall_upper_bound_1f1(m, n, p3)
                    rec["bound_1f1"] = b1 * scale
                    rec["trunc_bound"] = nuttall_truncation_bound(
                        NuttallParams(m, n, p3, p4), args.terms).bound_value * scale
            except DomainError:
                rec.setdefault("bound_1f1", None)
                rec.setdefault("trunc_bound", None)
        return rec

    rows = [compute(pt) for pt in points]
    worst = 0.0
    for rec in rows:
        out.row(rec)
        worst = max(worst, rec["rel_error"])
    out.summary(max_rel_error=worst, points=len(rows))
    if args.assert_rel_err is not None and worst > args.assert_rel_err:
        out.summary(assertion="failed", threshold=args.assert_rel_err)
        return 1
    return 0


def cmd_bounds(args) -> int:
    out = Emitter(args.format, sys.stdout)
    fn = args.function
    if fn not in ("nuttall", "toronto"):
        raise DomainError(f"bounds are defined for nuttall/toronto, got {fn}")
    pairs = _pairs(_float_list(args.m), _float_list(args.n))
    p3s = _float_list(args.r if fn == "toronto" else args.a)
    p4s = _float_list(args.B if fn == "toronto" else args.b)
    terms_list = _int_list(args.terms) if args.kind == "truncation" else [0]
    points = [(m, n, p3, p4, t) for (m, n) in pairs for p3 in p3s
              for p4 in p4s for t in terms_list]
    if not points:
        raise DomainError("empty grid")
    if len(points) > 10_000:
        raise DomainError(f"grid too large: {len(points)} > 10000 points")
    for pt in points:
        _check_box(*pt[:4])
    out.meta(command="bounds", function=fn, kind=args.kind, terms=args.terms,
             points=len(points))

    def compute(pt):
        m, n, p3, p4, t = pt
        rec = {"function_id": fn, "kind": args.kind, "m": m, "n": n,
               ("r" if fn == "toronto" else "a"): p3,
               ("B" if fn == "toronto" else "b"): p4,
               "terms": t if args.kind == "truncation" else None}
        try:
            if args.kind == "truncation":
                rep = (toronto_truncation_bound(TorontoParams(m, n, p3, p4), t)
                       if fn == "toronto"
                       else nuttall_truncation_bound(NuttallParams(m, n, p3, p4), t))
            else:
                if fn == "toronto":
                    bound = toronto_upper_bound_1f1(m, n, p3)
                    value = toronto_series_adaptive(TorontoParams(m, n, p3, p4)).value
                    regime = max(m, n, p3) <= 0.5 * p4
                else:
                    bound = nuttall_upper_bound_1f1(m, n, p3)
                    value = nuttall_series_adaptive(NuttallParams(m, n, p3, p4)).value
                    regime = p4 <= (2.0 / 3.0) * min(p3, m, n)
                rep = None
                rec.update(bound_value=bound, dominated_quantity=value,
                           regime_ok=regime, slack=bound - value)
            if rep is not None:
                rec.update(bound_value=rep.bound_value,
                           dominated_quantity=rep.dominated_quantity,
                           regime_ok=rep.regime_ok, slack=rep.slack)
        except DomainError as exc:
            # e.g. the rounded orders admit no closed form (m <= n sweeps);
            # keep the row, flag it out of regime, and leave numerics empty
            rec.update(bound_value=None, dominated_quantity=None,
                       regime_ok=False, slack=None, error=str(exc))
        return rec

    rows = [compute(pt) for pt in points]
    violations = 0
    for rec in rows:
        out.row(rec)
        if rec["regime_ok"] and rec["slack"] is not None \
                and rec["slack"] < SLACK_GATE:
            violations += 1
    out.summary(rows=len(rows), violations=violations, slack_gate=SLACK_GATE)
    return 1 if violations else 0


# Figure parameter sets are repo-chosen; each block documents its own grid in
# the emitted metadata so the data files are self-describing.
def _figure_rows(figure: str, oracle_tol: float) -> tuple[dict, list[dict]]:
    rows: list[dict] = []
    if figure == "f1":
        meta = {"figure": "f1", "curves": "normalized nuttall vs b",
                "params": "(m,n,a) in {(1,0,1),(2,1,1),(3,0.5,2)}",
                "b": "0..6 step 0.25"}
        from .oracle import oracle_nuttall
        for (m, n, a) in [(1.0, 0.0, 1.0), (2.0, 1.0, 1.0), (3.0, 0.5, 2.0)]:
            for i in range(0, 25):
                b = 0.25 * i
                series = nuttall_series_adaptive(NuttallParams(m, n, a, b)).value
                oracle = oracle_nuttall(m, n, a, b, tol=oracle_tol).value / a ** n
                rows.append({"m": m, "n": n, "a": a, "b": b,
                             "series_value": series, "oracle_value": oracle})
    elif figure == "f2":
        meta = {"figure": "f2", "curves": "1F1 bound tightening as a grows",
                "params": "(m,n) in {(2,1),(3,1)}, b=0.25", "a": "0.5..4 step 0.25"}
        for (m, n) in [(2.0, 1.0), (3.0, 1.0)]:
            for i in range(2, 17):
                a = 0.25 * i
                value = nuttall_series_adaptive(NuttallParams(m, n, a, 0.25)).value
                bound = nuttall_upper_bound_1f1(m, n, a)
                rows.append({"m": m, "n": n, "a": a, "b": 0.25,
                             "series_value": value, "bound_value": bound,
                             "rel_gap": (bound - value) / value})
    elif figure == "f3":
        meta = {"figure": "f3", "curves": "toronto vs 1 - marcum identity",
                "params": "m=3, n=1, r in {0.5,1,2}", "B": "0.5..4 step 0.25"}
        for r in (0.5, 1.0, 2.0):
            for i in range(2, 17):
                big_b = 0.25 * i
                t = toronto_t(3.0, 1.0, r, big_b)
                q = marcum_q(2.0, r * math.sqrt(2.0), big_b * math.sqrt(2.0))
                rows.append({"m": 3.0, "n": 1.0, "r": r, "B": big_b,
                             "toronto_value": t, "one_minus_marcum": 1.0 - q,
                             "identity_residual":
                                 toronto_marcum_residual(3.0, r, big_b)})
    elif figure == "f4":
        meta = {"figure": "f4",
                "curves": "1F1 approximation relative error vs r",
                "params": "(m,n) in {(1,0.5),(2,1)}, B=5 (large enough that "
                          "the B-independent bound is meaningful)",
                "r": "0.1..1.2 step 0.05"}
        for (m, n) in [(1.0, 0.5), (2.0, 1.0)]:
            for i in range(2, 25):
                r = 0.05 * i
                value = toronto_series_adaptive(TorontoParams(m, n, r, 5.0)).value
                approx = toronto_upper_bound_1f1(m, n, r)
                rows.append({"m": m, "n": n, "r": r, "B": 5.0,
                             "series_value": value, "approx_value": approx,
                             "rel_error": abs(approx - value) / value})
    else:
        raise DomainError(f"unknown figure {figure!r}")
    return meta, rows


def cmd_figure(args) -> int:
    meta, rows = _figure_rows(args.figure, args.oracle_tol)
    if args.output == "-":
        out = Emitter(args.format, sys.stdout)
        out.meta(command="figure", **meta)
        for rec in rows:
            out.row(rec)
        out.summary(rows=len(rows))
        return 0
    with open(args.output, "w") as fh:
        out = Emitter(args.format, fh)
        out.meta(command="figure", **meta)
        for rec in rows:
            out.row(rec)
        out.summary(rows=len(rows))
    return 0


def cmd_golden(args) -> int:
    from .oracle import _evaluate_case, golden_path, read_golden, write_golden

    out = Emitter(args.format, sys.stdout)
    if args.regenerate:
        path = write_golden(args.path)
        out.meta(command="golden", action="regenerate", path=str(path))
        return 0
    entries = read_golden(args.path)
    out.meta(command="golden", action="verify", path=str(args.path or golden_path()),
             entries=len(entries))
    worst = 0.0
    for e in entries:
        gv = _evaluate_case(e.kind, e.m, e.n, e.a_or_r, e.b_or_big_b, e.tol,
                            scheme="gauss")
        diff = abs(gv.value - e.value)
        worst = max(worst, diff)
        out.row({"kind": e.kind, "m": e.m, "n": e.n, "a_or_r": e.a_or_r,
                 "b_or_B": e.b_or_big_b, "golden_value": e.value,
                 "gauss_value": gv.value, "abs_diff": diff,
                 "within_2tol": diff <= 2 * e.tol})
    out.summary(worst_abs_diff=worst)
    return 0 if worst <= 2 * entries[0].tol else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nuttq",
        description="Nuttall Q, Marcum Q and incomplete Toronto function "
                    "evaluators with quadrature cross-checks.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    sub = parser.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", parents=[common],
                        help="evaluate one point by a chosen method")
    pe.add_argument("function", choices=FUNCTIONS)
    pe.add_argument("--method", default="adaptive",
                    choices=("truncated", "adaptive", "closed_half", "bound_1f1"))
    pe.add_argument("--m", type=float, required=True)
    pe.add_argument("--n", type=float)
    pe.add_argument("--a", type=float)
    pe.add_argument("--b", type=float)
    pe.add_argument("--r", type=float)
    pe.add_argument("--B", type=float)
    pe.add_argument("--terms", type=int, default=20)
    pe.add_argument("--tol", type=float, default=1e-12)
    pe.add_argument("--max-terms", type=int, default=10_000,
                    help="adaptive-summation term cap")
    pe.set_defaults(func=cmd_eval)

    pc = sub.add_parser("compare", parents=[common],
                        help="series vs oracle over a cartesian grid")
    pc.add_argument("function", choices=FUNCTIONS)
    pc.add_argument("--method", default="truncated",
                    choices=("truncated", "adaptive"))
    pc.add_argument("--m", required=True, help="comma list; pairs with --n")
    pc.add_argument("--n", default="")
    pc.add_argument("--a", default="")
    pc.add_argument("--b", default="")
    pc.add_argument("--r", default="")
    pc.add_argument("--B", default="")
    pc.add_argument("--terms", type=int, default=20)
    pc.add_argument("--tol", type=float, default=1e-12)
    pc.add_argument("--oracle-tol", type=float, default=1e-10)
    pc.add_argument("--scheme", choices=("adaptive", "gauss"), default="adaptive")
    pc.add_argument("--with-bounds", action="store_true")
    pc.add_argument("--assert-rel-err", type=float, default=None,
                    help="exit 1 if any row's rel_error exceeds this")
    pc.set_defaults(func=cmd_compare)

    pb = sub.add_parser("bounds", parents=[common],
                        help="bound reports over a grid; exit 1 on violations")
    pb.add_argument("function", choices=("nuttall", "toronto"))
    pb.add_argument("--kind", choices=("truncation", "kummer"),
                    default="truncation")
    pb.add_argument("--m", required=True)
    pb.add_argument("--n", required=True)
    pb.add_argument("--a", default="")
    pb.add_argument("--b", default="")
    pb.add_argument("--r", default="")
    pb.add_argument("--B", default="")
    pb.add_argument("--terms", default="5",
                    help="comma list of truncation depths (truncation kind)")
    pb.set_defaults(func=cmd_bounds)

    pf = sub.add_parser("figure", parents=[common],
                        help="emit figure-reproduction data files")
    pf.add_argument("figure", choices=("f1", "f2", "f3", "f4"))
    pf.add_argument("--output", default="-", help="path or - for stdout")
    pf.add_argument("--oracle-tol", type=float, default=1e-10)
    pf.set_defaults(func=cmd_figure)

    pg = sub.add_parser("golden", parents=[common],
                        help="verify or regenerate the golden reference file")
    pg.add_argument("--regenerate", action="store_true")
    pg.add_argument("--path", default=None)
    pg.set_defaults(func=cmd_golden)

    return parser


def main(argv: Iterable[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        _emit_error(args, "domain_error", exc)
        return 2
    except (NonConvergenceError, ToleranceNotMetError, TermOverflowError) as exc:
        _emit_error(args, "convergence_error", exc)
        return 3


def _emit_error(args, kind: str, exc: Exception) -> None:
    fmt = getattr(args, "format", "csv")
    if fmt == "json":
        print(json.dumps({"type": "error", "error_type": kind,
                          "message": str(exc)}, sort_keys=True))
    else:
        print(f"# error {kind}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
