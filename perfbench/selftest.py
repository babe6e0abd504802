"""Self-tests of the benchmark's own machinery.

    python3 perfbench/selftest.py

Checks that the 40-digit reference reproduces every golden value, that an
injected wrong value and an injected exception are each counted as a failed
op without stopping the loop, that documented DomainErrors are classified
as not applicable, that the known defects are excused (counted apart from
``failed``) only within their limits, and that BENCHMARK.json names exactly the metrics run.py
prints.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import ops  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise AssertionError(what)


def test_reference_matches_golden():
    misses = reference.verify_golden(run.SRC / "nuttq" / "data" / "golden.txt")
    expect(not misses, f"reference misses golden entries: {misses}")


def test_injected_failures_are_counted():
    lib = worker._lib("series_box")
    calls = {"n": 0}

    def injecting(original):
        def call(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 3:
                raise ZeroDivisionError("injected")
            res = original(*args, **kwargs)
            if calls["n"] == 5:
                return dataclasses.replace(res, value=res.value * (1 + 1e-6))
            return res
        return call

    nuttall = SimpleNamespace(**vars(lib.nuttall))
    toronto = SimpleNamespace(**vars(lib.toronto))
    nuttall.nuttall_series_adaptive = injecting(lib.nuttall.nuttall_series_adaptive)
    toronto.toronto_series_adaptive = injecting(lib.toronto.toronto_series_adaptive)
    faulty = SimpleNamespace(nuttall=nuttall, toronto=toronto)
    stream = workloads.series_box(7)
    op_list = [op for op in (next(stream) for _ in range(40)) if op[0] != "marcum"][:12]
    loop = worker.Loop("series_box", "selftest")
    loop.run(faulty, ops.series_box, iter(op_list))
    expect(loop.records.count == len(op_list), "the loop stopped early")
    _latency, outputs = ops.Records.unpack("series_box", loop.records.payload())

    verdicts = checks.Verdicts()
    checker = checks.OpChecker(verdicts)
    for op, parts in zip(op_list, outputs):
        fn, m, n, p3, p4, _tol = op
        ref = (reference.toronto(m, n, p3, p4) if fn == "toronto"
               else reference.nuttall_norm(m, n, p3, p4))
        checker.series_box(op, parts, ref)
    expect(verdicts.attempted == len(op_list), "not every op was checked")
    expect(verdicts.failed == 2, f"expected 2 failed ops, got {verdicts.failed}")
    expect(verdicts.classes == {"raise:ZeroDivisionError": 1, "miss:series": 1},
           f"unexpected failure classes {dict(verdicts.classes)}")
    expect(not verdicts.correct, "a wrong value must make the run incorrect")


def test_documented_domain_errors_are_not_failures():
    verdicts = checks.Verdicts()
    checker = checks.OpChecker(verdicts)
    refused = ["!", "DomainError"]
    # ceil_half(1.2) = 1.5 < ceil_half(3.7) = 4.5: the Nuttall bound's domain
    op = ("nuttall", 1.2, 3.7, 1.0, 2.0, "adaptive")
    value = reference.nuttall_norm(*op[1:5])
    oracle = [value * 1.0 ** 3.7, 1e-12, 5]
    bound = [reference.nuttall_bound_1f1(1.2, 3.7, 1.0)]
    checker.crosscheck(op, [[value * 0.5], oracle, bound, refused], value, None,
                       bound[0], True)
    expect(verdicts.failed == 0 and verdicts.not_applicable == 1,
           "a documented DomainError was counted as a failure")
    # ceil_half(3.7) = 4.5 >= ceil_half(1.2) = 1.5: a DomainError is a failure
    op = ("nuttall", 3.7, 1.2, 1.0, 2.0, "adaptive")
    value = reference.nuttall_norm(*op[1:5])
    checker.crosscheck(op, [[value * 0.5], [value, 1e-12, 5], refused, refused],
                       value, None, None, True)
    expect(verdicts.failed == 1 and verdicts.classes["raise:DomainError"] == 1,
           "an undocumented DomainError was not counted as a failure")


def test_known_defects_are_excused_only_within_their_limits():
    op = ("marcum", 2.5, 1.5, 2.0, 3.0, "adaptive")
    value = reference.nuttall_norm(*op[1:5])
    closed = reference.nuttall_norm(2.5, 1.5, 2.0, 3.0)
    report = [closed - 0.5 * value, 0.5 * value]
    bound = [reference.nuttall_bound_1f1(2.5, 1.5, 2.0)]

    def verdict(oracle, report=report, trunc=0.5 * value):
        verdicts = checks.Verdicts()
        checks.OpChecker(verdicts).crosscheck(
            op, [[trunc], oracle, bound, report], value, closed, bound[0], True)
        # one op: counted once, in `failed` only when it makes the run incorrect
        expect(verdicts.failed + verdicts.known_defect == bool(verdicts.classes),
               "a failing op was not counted once")
        expect(verdicts.failed == (not verdicts.correct),
               "`failed` must count exactly the ops beyond the known defects")
        return dict(verdicts.classes), verdicts.correct

    expect(verdict([value, 1e-12, 5]) == ({}, True), "a good op failed")
    expect(verdict([value + 5e-12, 1e-12, 5]) == ({"miss:oracle_estimate": 1}, True),
           "an oracle miss of 5x its estimate is a known defect")
    expect(verdict([value + 1e-9, 1e-12, 5]) == ({"miss:oracle": 1}, False),
           "an oracle miss of 1000x its estimate must make the run incorrect")
    expect(verdict(["!", "ToleranceNotMetError"]) == ({"refused:oracle_tolerance": 1}, True),
           "an oracle refusal is a known defect")
    expect(verdict(["!", "NonConvergenceError"])[1] is False,
           "an oracle NonConvergenceError must make the run incorrect")
    # at (2.5, 1.5, 2, 3) the closed form barely cancels: a 1e-6 error is
    # far beyond what cancellation explains
    wrong = [report[0] * (1 + 1e-6), report[1]]
    expect(verdict([value, 1e-12, 5], report=wrong) == ({"miss:closed_form": 1}, False),
           "an unexplained closed-form miss must make the run incorrect")
    # (9.5, 9.5, 0.05, 8): the closed form cancels by about 1e22
    scale = checks.closed_form_abs_sum("nuttall_norm", 9.5, 9.5, 0.05, 8.0)
    true = reference.nuttall_norm(9.5, 9.5, 0.05, 8.0)
    expect(scale / true > 1e20, f"condition number {scale / true:.3g} at (9.5, 9.5, 0.05, 8)")


def test_benchmark_json_names_the_printed_metrics():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect({m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END,
           "end_to_end metrics differ from run.END_TO_END")
    expect({m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER,
           "per_layer metrics differ from run.PER_LAYER")
    expect([w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS),
           "workloads differ from workloads.WORKLOADS")


def test_importtime_parse():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |         scipy._lib",
        "import time:       200 |        300 |       scipy",
        "import time:        50 |        350 |     scipy.integrate",
        "import time:        40 |         40 |     numpy",
        "import time:        10 |        400 |   nuttq.oracle",
        "import time:         5 |        405 | nuttq",
    ])
    got = run._outer_import_s(log, ("numpy", "scipy"))
    expect(abs(got - 390e-6) < 1e-12, f"outermost numpy+scipy import: {got}")


def main() -> int:
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"ok {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
