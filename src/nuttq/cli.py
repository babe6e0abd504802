"""Command line surface: evaluate, compare against the oracle, emit bounds
and figure data as CSV or JSON.

Output contract: deterministic byte-identical records for identical
invocations.  Each command computes all its rows, then writes them in one
call (Emitter.rows); their CSV header names every field any row has, in
first-seen order.  CSV rows use 17-significant-digit decimals and quote a
field only when it holds a comma, quote or newline; `#` metadata lines
echo the inputs, and a trailing summary carries grid-level aggregates.  JSON
mode emits one object per line with a "type" tag (meta, row, summary).

Exit codes: 0 success, 1 assertion failure (--assert-rel-err or a violated
bound), 2 domain error, 3 non-convergence or unmet tolerance, 141 (128 +
SIGPIPE, as a shell reports a process a broken pipe ends) when the reader
of stdout closes it early, as `nuttq ... | head` does; that ends quietly.

Only the subcommands that need an oracle value (compare, figure f1, golden)
import the quadrature oracle and with it numpy; eval, bounds and the other
figures run on the stdlib-only series route.  compare, figure f1 and golden
verify ask the second scheme, tanh-sinh, and load numpy alone; only the
ones that run the adaptive scheme (compare --scheme adaptive and golden
--regenerate) import scipy, its QUADPACK and its ive.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import math
import os
import sys
from typing import Any, Iterable

from .box import ORACLE_TOL, check_box
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
    nuttall_truncation_bounds,
    nuttall_upper_bound_1f1,
)
from .special import SERIES_TOL, BoundReport, check_terms
from .toronto import (
    TorontoParams,
    toronto_closed_form_half,
    toronto_series_adaptive,
    toronto_series_truncated,
    toronto_t,
    toronto_truncation_bounds,
    toronto_upper_bound_1f1,
)

FUNCTIONS = ("nuttall", "nuttall_norm", "marcum", "toronto")
SLACK_GATE = -1e-8
# exit code on a closed stdout: 128 + SIGPIPE
EXIT_CLOSED_STDOUT = 141


def _fmt(x: Any) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


class Emitter:
    """Writes meta lines, a command's rows, and a summary in csv or json."""

    def __init__(self, fmt: str, out):
        self.fmt = fmt
        self.out = out

    def meta(self, **kv):
        self._line("meta", "# ", kv)

    def rows(self, records: list[dict]):
        """All of a command's rows.  The CSV header names every field any
        row has, in first-seen order; a row lacking one leaves it empty."""
        if self.fmt == "csv":
            columns = list(dict.fromkeys(c for rec in records for c in rec))
            writer = csv.writer(self.out, lineterminator="\n")
            writer.writerow(columns)
            writer.writerows([_fmt(rec.get(c)) for c in columns]
                             for rec in records)
        else:
            for rec in records:
                print(json.dumps({"type": "row", **rec}, sort_keys=True),
                      file=self.out)

    def summary(self, **kv):
        self._line("summary", "# summary ", kv)

    def _line(self, kind: str, csv_prefix: str, kv: dict):
        if self.fmt == "csv":
            body = " ".join(f"{k}={_fmt(v)}" for k, v in kv.items())
            print(csv_prefix + body, file=self.out)
        else:
            print(json.dumps({"type": kind, **kv}, sort_keys=True), file=self.out)


def _number_list(text: str, kind) -> list:
    """Comma-separated entries of text as kind (float or int); blank entries
    are skipped and a non-numeric one is a DomainError."""
    values = []
    for item in text.split(","):
        if not item.strip():
            continue
        try:
            values.append(kind(item))
        except ValueError:
            raise DomainError(f"expected {kind.__name__} entries, got "
                              f"{item.strip()!r} in {text!r}") from None
    return values


def _number(text: str, kind):
    """The one entry of a one-value option (--terms, --tol,
    --assert-rel-err) as kind, read as _number_list reads a list's."""
    values = _number_list(text, kind)
    if len(values) != 1:
        raise DomainError(f"expected one {kind.__name__}, got {text!r}")
    return values[0]


def _scale(function: str, n: float, p3: float) -> float:
    """Normalized value -> output scale: a^n for nuttall, 1 otherwise."""
    return p3 ** n if function == "nuttall" else 1.0


def _names(function: str) -> tuple[str, str]:
    """The names of the third and fourth parameters: r, B for toronto, a, b
    otherwise."""
    return ("r", "B") if function == "toronto" else ("a", "b")


def _point(function: str, m: float, n: float, p3: float, p4: float) -> dict:
    """A point's record fields, named as _names says."""
    return dict(zip(("m", "n", *_names(function)), (m, n, p3, p4)))


def _norm_series(function: str, m: float, n: float, method: str,
                 terms: int, tol: float, p3: float, p4: float):
    """Series result on the normalized scale; see _scale."""
    if function == "toronto":
        p = TorontoParams(m, n, p3, p4)
        return (toronto_series_truncated(p, terms) if method == "truncated"
                else toronto_series_adaptive(p, tol=tol))
    p = NuttallParams(m, n, p3, p4)
    return (nuttall_series_truncated(p, terms) if method == "truncated"
            else nuttall_series_adaptive(p, tol=tol))


def _bound_1f1(function: str, m: float, n: float, p3: float) -> float:
    """The 1F1 upper bound on the normalized scale; see _scale."""
    if function == "toronto":
        return toronto_upper_bound_1f1(m, n, p3)
    return nuttall_upper_bound_1f1(m, n, p3)


def _truncation_bounds(function: str, m: float, n: float, p3: float,
                       p4: float, depths: list[int]) -> list[BoundReport]:
    """Truncation-bound reports at each depth, on the normalized scale."""
    if function == "toronto":
        return toronto_truncation_bounds(TorontoParams(m, n, p3, p4), depths)
    return nuttall_truncation_bounds(NuttallParams(m, n, p3, p4), depths)


def _grid(args, depths: str | None = None) -> tuple[list[tuple], list]:
    """The (m, n, p3, p4) points of an eval, compare or bounds grid and the
    depths each is reported at, from its comma lists (depths [None] without
    a depth list); marcum takes n = m - 1 and refuses an m below 1, as the
    library does.  Refuses a missing or blank parameter list (the CLI's
    one missing-argument rule: every point option defaults to ""), a depth
    outside [1, MAX_TRUNC_TERMS], an empty grid, one over 10^4 rows (points
    times depths), and points outside the box (every request stays inside
    the window the oracle is validated on, so each emitted value is
    cross-checkable)."""
    fn = args.function
    required = ("m", *_names(fn)) if fn == "marcum" else ("m", "n", *_names(fn))
    missing = [f"--{nm}" for nm in required if not getattr(args, nm).strip()]
    if missing:
        raise DomainError(f"{fn} needs {', '.join(missing)}")
    ms = _number_list(args.m, float)
    if fn == "marcum" and (low := [mv for mv in ms if mv < 1.0]):
        raise DomainError(f"Marcum order must be >= 1, got m={low[0]}")
    ns = ([mv - 1.0 for mv in ms] if fn == "marcum"
          else _number_list(args.n, float))
    if len(ms) != len(ns):
        raise DomainError(
            f"--m and --n must pair up, got {len(ms)} vs {len(ns)} values")
    p3s, p4s = [_number_list(getattr(args, name), float) for name in _names(fn)]
    ds = [None]
    if depths is not None:
        ds = _number_list(depths, int)
        for d in ds:
            check_terms(d)
    points = [(m, n, p3, p4) for m, n in zip(ms, ns) for p3 in p3s for p4 in p4s]
    rows = len(points) * len(ds)
    if not rows:
        raise DomainError("empty grid")
    if rows > 10_000:
        raise DomainError(f"grid too large: {rows} > 10000 points")
    for pt in points:
        check_box(*pt)
    return points, ds


def cmd_eval(args) -> int:
    out = Emitter(args.format, sys.stdout)
    fn = args.function
    points, _ = _grid(args)
    if len(points) > 1:
        raise DomainError("eval takes one point; use compare for a grid")
    [(m, n, p3, p4)] = points
    terms, tol = _number(args.terms, int), _number(args.tol, float)
    point = _point(fn, m, n, p3, p4)
    out.meta(command="eval", function=fn, method=args.method, **point,
             terms=terms, tol=tol)
    record: dict[str, Any] = {"function_id": fn, "method": args.method, **point}
    scale = _scale(fn, n, p3)
    if args.method in ("truncated", "adaptive"):
        res = _norm_series(fn, m, n, args.method, terms, tol, p3, p4)
        record.update(value=res.value * scale, terms_used=res.terms_used,
                      last_term_abs=res.last_term_abs, converged=res.converged)
    elif args.method == "closed_half":
        record["value"] = scale * (
            toronto_closed_form_half(m, n, p3, p4) if fn == "toronto"
            else nuttall_half_integer_closed(NuttallParams(m, n, p3, p4)))
    else:  # bound_1f1
        record["value"] = scale * _bound_1f1(fn, m, n, p3)
    out.rows([record])
    return 0


def _oracle_for(function: str, m: float, n: float, p3: float, p4: float,
                tol: float, scheme: str) -> float:
    """The oracle value of function at a point, on the scale the series
    prints it: nuttall_norm and marcum are normalized by the oracle itself.
    The one reader of oracle values for compare, figure f1 and golden
    verify.  Every oracle integrand is positive on its interval, so a
    value of exactly 0 is an underflow of the integrand, not a result: it
    raises ToleranceNotMetError."""
    from .oracle import _evaluate_case

    ov = _evaluate_case(function, m, n, p3, p4, tol, scheme=scheme)
    if ov.value == 0.0:
        p3_name, p4_name = _names(function)
        raise ToleranceNotMetError(
            f"{function} oracle value underflows to 0 at m={m}, n={n}, "
            f"{p3_name}={p3}, {p4_name}={p4}", value=0.0,
            err_est=ov.abs_err_est)
    return ov.value


def cmd_compare(args) -> int:
    out = Emitter(args.format, sys.stdout)
    fn = args.function
    points, _ = _grid(args)
    terms = _number(args.terms, int)
    if args.with_bounds:
        # so that compute() catches only a DomainError of a point's orders
        check_terms(terms)
    threshold = (None if args.assert_rel_err is None
                 else _number(args.assert_rel_err, float))
    # a nan or negative threshold would pass or fail whatever the errors
    if not (threshold is None or threshold >= 0.0):
        raise DomainError(f"--assert-rel-err must be >= 0, got {threshold}")
    out.meta(command="compare", function=fn, method=args.method,
             terms=terms, tol=SERIES_TOL, oracle_tol=ORACLE_TOL,
             scheme=args.scheme, points=len(points))

    def compute(m, n, p3, p4):
        scale = _scale(fn, n, p3)
        res = _norm_series(fn, m, n, args.method, terms, SERIES_TOL, p3, p4)
        series = res.value * scale
        oracle = _oracle_for(fn, m, n, p3, p4, ORACLE_TOL, args.scheme)
        rel = abs(series - oracle) / abs(oracle)
        rec = {"function_id": fn, **_point(fn, m, n, p3, p4),
               "series_value": series, "oracle_value": oracle,
               "rel_error": rel, "terms": res.terms_used}
        if args.with_bounds:
            # each bound refuses on its own: its cell alone stays empty
            rec["bound_1f1"] = rec["trunc_bound"] = None
            with contextlib.suppress(DomainError):
                rec["bound_1f1"] = _bound_1f1(fn, m, n, p3) * scale
            with contextlib.suppress(DomainError):
                rec["trunc_bound"] = _truncation_bounds(
                    fn, m, n, p3, p4, [terms])[0].bound_value * scale
        return rec

    rows = [compute(*pt) for pt in points]
    out.rows(rows)
    worst = max(0.0, *(rec["rel_error"] for rec in rows))
    out.summary(max_rel_error=worst, points=len(rows))
    if threshold is not None and worst > threshold:
        out.summary(assertion="failed", threshold=threshold)
        return 1
    return 0


def cmd_bounds(args) -> int:
    out = Emitter(args.format, sys.stdout)
    fn = args.function
    points, depths = _grid(args, args.terms if args.kind == "truncation"
                           else None)
    out.meta(command="bounds", function=fn, kind=args.kind, terms=args.terms,
             points=len(points) * len(depths))

    def reports(m, n, p3, p4) -> list[BoundReport]:
        """A point's reports, one per depth (depths is [None] for kummer)."""
        if args.kind == "truncation":
            return _truncation_bounds(fn, m, n, p3, p4, depths)
        bound = _bound_1f1(fn, m, n, p3)
        value = _norm_series(fn, m, n, "adaptive", None, SERIES_TOL, p3, p4).value
        regime = (max(m, n, p3) <= 0.5 * p4 if fn == "toronto"
                  else p4 <= (2.0 / 3.0) * min(p3, m, n))
        return [BoundReport(bound_value=bound, dominated_quantity=value,
                            regime_ok=regime, slack=bound - value)]

    rows = []
    for m, n, p3, p4 in points:
        try:
            fields = [dataclasses.asdict(rep) for rep in reports(m, n, p3, p4)]
        except DomainError as exc:
            # e.g. the rounded orders admit no closed form (m <= n sweeps);
            # keep the rows, flag them out of regime, and leave numerics empty
            blank = dict.fromkeys(fd.name for fd in dataclasses.fields(BoundReport))
            fields = [blank | {"regime_ok": False, "error": str(exc)}] * len(depths)
        rows += [{"function_id": fn, "kind": args.kind,
                  **_point(fn, m, n, p3, p4), "terms": t, **f}
                 for t, f in zip(depths, fields)]
    out.rows(rows)
    # a row refused with an error has regime_ok false and no slack
    violations = sum(rec["regime_ok"] and rec["slack"] < SLACK_GATE
                     for rec in rows)
    out.summary(rows=len(rows), violations=violations, slack_gate=SLACK_GATE)
    return 1 if violations else 0


# Figure parameter sets are repo-chosen; each block documents its own grid in
# the emitted metadata so the data files are self-describing.
def _figure_rows(figure: str) -> tuple[dict, list[dict]]:
    rows: list[dict] = []
    if figure == "f1":
        meta = {"figure": "f1", "curves": "normalized nuttall vs b",
                "params": "(m,n,a) in {(1,0,1),(2,1,1),(3,0.5,2)}",
                "b": "0..6 step 0.25"}
        for (m, n, a) in [(1.0, 0.0, 1.0), (2.0, 1.0, 1.0), (3.0, 0.5, 2.0)]:
            for i in range(0, 25):
                b = 0.25 * i
                series = nuttall_series_adaptive(NuttallParams(m, n, a, b)).value
                oracle = _oracle_for("nuttall_norm", m, n, a, b, ORACLE_TOL,
                                     "gauss")
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
                # the residual of T_B(3, 1, r) = 1 - Q_2(r sqrt 2, B sqrt 2),
                # the identity at n = (m-1)/2, from the two values
                rows.append({"m": 3.0, "n": 1.0, "r": r, "B": big_b,
                             "toronto_value": t, "one_minus_marcum": 1.0 - q,
                             "identity_residual": abs(t + q - 1.0)})
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
    # the rows come first, so a refused row leaves no file behind
    meta, rows = _figure_rows(args.figure)
    try:
        with (contextlib.nullcontext(sys.stdout) if args.output == "-"
              else open(args.output, "w")) as fh:
            out = Emitter(args.format, fh)
            out.meta(command="figure", **meta)
            out.rows(rows)
            out.summary(rows=len(rows))
    except BrokenPipeError:
        raise  # a closed stdout, not an unwritable file; see main
    except OSError as exc:
        raise DomainError(f"cannot write figure file {args.output!r}: "
                          f"{exc.strerror}") from None
    return 0


def cmd_golden(args) -> int:
    from .oracle import read_golden, write_golden

    out = Emitter(args.format, sys.stdout)
    # the packaged file's location differs between checkouts, so only a
    # path given on the command line is echoed
    path = {} if args.path is None else {"path": args.path}
    if args.regenerate:
        write_golden(args.path)
        out.meta(command="golden", action="regenerate", **path)
        return 0
    entries = read_golden(args.path)
    out.meta(command="golden", action="verify", **path, entries=len(entries))
    worst = 0.0
    rows = []
    for e in entries:
        gv = _oracle_for(e.kind, e.m, e.n, e.a_or_r, e.b_or_big_b, e.tol, "gauss")
        diff = abs(gv - e.value)
        worst = max(worst, diff)
        rows.append({"kind": e.kind, "m": e.m, "n": e.n, "a_or_r": e.a_or_r,
                     "b_or_B": e.b_or_big_b, "golden_value": e.value,
                     "gauss_value": gv, "abs_diff": diff,
                     "within_2tol": diff <= 2 * e.tol})
    out.rows(rows)
    out.summary(worst_abs_diff=worst)
    return 0 if all(rec["within_2tol"] for rec in rows) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nuttq",
        description="Nuttall Q, Marcum Q and incomplete Toronto function "
                    "evaluators with quadrature cross-checks.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    # a grid command's points: comma lists, --m paired with --n; _grid says
    # which ones a function needs
    grid = argparse.ArgumentParser(add_help=False, parents=[common])
    for name in ("m", "n", *_names("nuttall"), *_names("toronto")):
        grid.add_argument(f"--{name}", default="")
    series = argparse.ArgumentParser(add_help=False, parents=[grid])
    series.add_argument("function", choices=FUNCTIONS)
    # the one-value options are read by _number, so that a non-number is
    # an error record as in a point list
    series.add_argument("--terms", default="20")
    sub = parser.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", parents=[series],
                        help="evaluate one point by a chosen method")
    # declared before --method, so the help lists them in that order
    pe.add_argument("--tol", default=str(SERIES_TOL))
    pe.add_argument("--method", default="adaptive",
                    choices=("truncated", "adaptive", "closed_half", "bound_1f1"))
    pe.set_defaults(func=cmd_eval)

    pc = sub.add_parser("compare", parents=[series],
                        help="series vs oracle over a cartesian grid")
    pc.add_argument("--method", default="truncated",
                    choices=("truncated", "adaptive"))
    pc.add_argument("--scheme", choices=("adaptive", "gauss"), default="gauss",
                    help="oracle scheme: gauss (nested tanh-sinh levels; the "
                         "name is kept), the default, or adaptive (QUADPACK)")
    pc.add_argument("--with-bounds", action="store_true")
    pc.add_argument("--assert-rel-err", default=None,
                    help="exit 1 if any row's rel_error exceeds this")
    pc.set_defaults(func=cmd_compare)

    pb = sub.add_parser("bounds", parents=[grid],
                        help="bound reports over a grid; exit 1 on violations")
    pb.add_argument("function", choices=("nuttall", "toronto"))
    pb.add_argument("--kind", choices=("truncation", "kummer"),
                    default="truncation")
    pb.add_argument("--terms", default="5",
                    help="comma list of truncation depths (truncation kind)")
    pb.set_defaults(func=cmd_bounds)

    pf = sub.add_parser("figure", parents=[common],
                        help="emit figure-reproduction data files")
    pf.add_argument("figure", choices=("f1", "f2", "f3", "f4"))
    pf.add_argument("--output", default="-", help="path or - for stdout")
    pf.set_defaults(func=cmd_figure)

    pg = sub.add_parser("golden", parents=[common],
                        help="verify or regenerate the golden reference file")
    pg.add_argument("--regenerate", action="store_true")
    pg.add_argument("--path", default=None)
    pg.set_defaults(func=cmd_golden)

    return parser


def main(argv: Iterable[str] | None = None) -> int:
    try:
        try:
            return _run(build_parser().parse_args(argv))
        finally:
            # inside the try, so a reader that already left is seen here and
            # not in the interpreter's last flush
            sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (`nuttq ... | head`): end quietly, with
        # the rest of the buffered output sent to the null device
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_CLOSED_STDOUT


def _run(args) -> int:
    try:
        return args.func(args)
    except DomainError as exc:
        _emit_error(args, "domain_error", exc)
        return 2
    except (NonConvergenceError, ToleranceNotMetError, TermOverflowError) as exc:
        _emit_error(args, "convergence_error", exc)
        return 3


def _emit_error(args, kind: str, exc: Exception) -> None:
    if args.format == "json":
        # every attribute the exception sets (errors.py) is its payload
        print(json.dumps({"type": "error", "error_type": kind,
                          "message": str(exc), **vars(exc)}, sort_keys=True))
    else:
        print(f"# error {kind}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
