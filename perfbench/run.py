"""nuttq benchmark: one workload, one seed, every metric checked and printed.

    python3 perfbench/run.py --workload series_box --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src``.  With ``--trace 0`` the run prints the end-to-end
metrics, with ``--trace 1`` the per-layer metrics and the tracing overhead.
The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is a JSON
report with the checks, sample counts and provenance.  Spans of a traced run
are written to ``perfbench/out/``.  See perfbench/README.md for the
workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import ops as ops_mod  # noqa: E402
import workloads  # noqa: E402
from spans import BRANCH_CF, GAMMA_KERNELS  # noqa: E402

SETUP_RUNS = 8       # fresh interpreters timed to "ready", plus the worker
# Each window of at least WINDOW_S of op time is scaled by the host speed
# probed within it (see hostspeed.py); the bounded figures are the medians
# over windows.
WINDOW_S = 2.0
REF_OPS = {"series_box": 400, "crosscheck": 150}   # mpmath-referenced ops
CLI_PROBES = 3       # fresh processes per cli.* timing in traced runs

END_TO_END = {"setup_s": "s", "ref_ops_per_s": "1/s", "ref_op_us_p50": "us",
              "peak_rss_mb": "MB"}
# the report also carries the figures as timed, which swing with the host,
# and what BENCHMARK.json cannot bound: p99 (too few samples on cli_cold),
# failure share and worst error (zero or heavy tailed on some workloads)
REPORT_UNITS = {**END_TO_END, "setup_s_as_timed": "s", "ops_per_s": "1/s",
                "op_us_p50": "us", "op_us_p99": "us", "host_speed": "ref",
                "failed_frac": "frac", "max_rel_err": "rel"}
PER_LAYER = {
    "special.calls_per_value": "calls", "special.gamma_calls_per_value": "calls",
    "special.gamma_cf_share": "frac", "special.gamma_us_per_call": "us",
    "special.kummer_us_per_call": "us", "special.self_share": "frac",
    "nuttall.terms_per_value": "terms", "nuttall.us_per_term": "us",
    "nuttall.self_us_per_value": "us", "toronto.terms_per_value": "terms",
    "toronto.us_per_term": "us", "toronto.self_us_per_value": "us",
    "nuttall.bound_us_per_report": "us", "nuttall.closed_us_per_value": "us",
    "toronto.bound_us_per_report": "us", "toronto.closed_us_per_value": "us",
    "oracle.us_per_value": "us", "oracle.gauss_us_per_value": "us",
    "oracle.subdivisions_per_value": "intervals", "oracle.refused_frac": "frac",
    "oracle.share": "frac",
    "cli.import_s": "s", "cli.scipy_imported": "bool", "cli.interpreter_s": "s",
    "cli.numpy_scipy_share": "frac", "cli.inproc_us_per_invocation": "us",
    "cli.compute_share": "frac",
    "workload.repeat_frac": "frac", "trace.overhead_frac": "frac",
}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def _worker(workload: str, *extra: str) -> tuple[float, dict | None]:
    """Start a worker; return (seconds until it was ready, its result with
    each loop's records unpacked into latencies and outputs)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, *extra]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=_env(),
                          cwd=ROOT) as proc:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest = proc.stdout.read()
        rc = proc.wait()
    if ready.strip() != "ready" or rc != 0:
        raise BenchError(f"worker {' '.join(cmd[2:])} failed with exit code {rc}")
    if not rest.strip():
        return setup, None
    res = json.loads(rest.splitlines()[-1])
    for key in ("plain", "traced"):
        if key in res:
            loop = res[key]
            loop["latency_s"], loop["outputs"] = ops_mod.Records.unpack(
                workload, loop.pop("records"))
    return setup, res


def _probe_child() -> tuple[int, float]:
    """(rounds, seconds) of a host speed probe in a fresh process."""
    out = subprocess.run([sys.executable, str(HERE / "hostspeed.py")],
                         capture_output=True, text=True, check=True).stdout.split()
    return int(out[0]), float(out[1])


def _cold_cli(argv: list[str]) -> tuple[float, int, str, int]:
    """One fresh `python -m nuttq.cli` process: (seconds, exit code, stdout,
    peak RSS in KiB)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "nuttq.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                            env=_env(), cwd=ROOT)
    with proc.stdout:
        out = proc.stdout.read()
    _pid, status, usage = os.wait4(proc.pid, 0)
    elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, out.decode(), usage.ru_maxrss


def _cold_loop(seed: int, seconds: float) -> dict:
    """Closed loop of fresh CLI processes, in whole blocks of the mix.

    Before each invocation a fresh probe process reads the host speed, as a
    process started the same way as the invocation; the probe is not part
    of any op's latency."""
    stream = workloads.cli_cold(seed)
    lat, outs, rss, probes = [], [], [], []
    start = time.perf_counter()
    while True:
        probes.extend((len(lat), *_probe_child()))
        elapsed, rc, out, kib = _cold_cli(next(stream))
        lat.append(elapsed)
        outs.append([rc, out])
        rss.append(kib)
        if (time.perf_counter() - start >= seconds
                and len(lat) % len(workloads.CLI_BLOCK) == 0):
            break
    return {"latency_s": lat, "outputs": outs, "maxrss_kb": max(rss),
            "probes": probes}


def _quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile."""
    idx = max(0, math.ceil(q * len(sorted_values)) - 1)
    return sorted_values[idx]


def _windows(lat: list[float]) -> list[tuple[int, int]]:
    """Index ranges of consecutive windows that last at least WINDOW_S of
    op time; a short tail is left out."""
    windows, lo, busy = [], 0, 0.0
    for i, x in enumerate(lat):
        busy += x
        if busy >= WINDOW_S:
            windows.append((lo, i + 1))
            lo, busy = i + 1, 0.0
    return windows or [(0, len(lat))]


def _at_reference_speed(lat: list[float], probes: list[float]):
    """(ops/s, median latency in s, host speed): each window's figures scaled
    by the speed probed within it, then the median over windows."""
    triples = [probes[i:i + 3] for i in range(0, len(probes), 3)]
    overall = (sum(t[1] for t in triples) / sum(t[2] for t in triples)
               / hostspeed.REF_RATE)
    rates, p50s, speeds = [], [], []
    for lo, hi in _windows(lat):
        inside = [t for t in triples if lo <= t[0] < hi]
        speed = (sum(t[1] for t in inside) / sum(t[2] for t in inside)
                 / hostspeed.REF_RATE if inside else overall)
        window = lat[lo:hi]
        rates.append(len(window) / sum(window) / speed)
        p50s.append(statistics.median(window) * speed)
        speeds.append(speed)
    return statistics.median(rates), statistics.median(p50s), statistics.median(speeds)


def _referenced(count: int, budget: int) -> set[int]:
    """Evenly spaced op indices that get the 40-digit reference."""
    if count <= budget:
        return set(range(count))
    return {k * count // budget for k in range(budget)}


# -- checks -----------------------------------------------------------------

def _check(workload: str, ops: list, outputs: list, verdicts: checks.Verdicts,
           cold: list | None = None) -> None:
    import reference

    checker = checks.OpChecker(verdicts)
    if workload == "series_box":
        chosen = _referenced(len(ops), REF_OPS[workload])
        for i, (op, parts) in enumerate(zip(ops, outputs)):
            ref = None
            if i in chosen:
                fn, m, n, p3, p4, _tol = op
                ref = (reference.toronto(m, n, p3, p4) if fn == "toronto"
                       else reference.nuttall_norm(m, n, p3, p4))
            checker.series_box(op, parts, ref)
    elif workload == "crosscheck":
        _check_crosscheck(ops, outputs, checker, reference)
    else:
        for argv, cold_out, inproc in zip(ops, cold, outputs):
            refusal = _cli_refusal(argv) if cold_out[0] in (2, 3) else None
            checker.cli(argv, cold_out, inproc, _eval_reference(argv, reference),
                        refusal)


def _cli_refusal(argv: list[str]) -> str | None:
    """Name of the exception the subcommand raises in-process, which
    cli.main turns into exit code 2 or 3."""
    sys.path.insert(0, str(SRC))
    from nuttq import cli

    args = cli.build_parser().parse_args(argv)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            args.func(args)
    except Exception as exc:
        return type(exc).__name__
    return None


def _eval_reference(argv: list[str], reference) -> float | None:
    if argv[0] != "eval":
        return None
    fn = argv[1]
    args = {k: float(v) for k, v in zip(argv[2::2], argv[3::2]) if k != "--method"}
    m = args["--m"]
    if fn == "toronto":
        return reference.toronto(m, args["--n"], args["--r"], args["--B"])
    n = m - 1.0 if fn == "marcum" else args["--n"]
    value = reference.nuttall_norm(m, n, args["--a"], args["--b"])
    return value * args["--a"] ** n if fn == "nuttall" else value


def _check_crosscheck(ops, outputs, checker, reference) -> None:
    sys.path.insert(0, str(SRC))
    from nuttq import nuttall, toronto

    def library_value(fn, m, n, p3, p4):
        # the adaptive series at its tightest tol, refereeing unreferenced ops
        try:
            if fn == "toronto":
                return toronto.toronto_series_adaptive(
                    toronto.TorontoParams(m, n, p3, p4), tol=1e-14).value
            return nuttall.nuttall_series_adaptive(
                nuttall.NuttallParams(m, n, p3, p4), tol=1e-14).value
        except (ArithmeticError, RuntimeError, ValueError):
            return None

    chosen = _referenced(len(ops), REF_OPS["crosscheck"])
    for i, (op, parts) in enumerate(zip(ops, outputs)):
        fn, m, n, p3, p4, _scheme = op
        trunc, _orc, bound, report = parts
        has_report = report[0] != "!" and trunc[0] != "!"
        mc, nc = checks.rounded_orders(fn, m, n)
        exact = reference.toronto if fn == "toronto" else reference.nuttall_norm
        value_ref = closed_ref = bound_ref = None
        if i not in chosen:
            value_ref = (report[1] + trunc[0] if has_report
                         else library_value(fn, m, n, p3, p4))
            closed_ref = library_value(fn, mc, nc, p3, p4) if has_report else None
        # the 40-digit reference on the chosen ops, and wherever the
        # refereeing series refused
        referenced = value_ref is None or (has_report and closed_ref is None)
        if referenced:
            value_ref = exact(m, n, p3, p4)
            closed_ref = exact(mc, nc, p3, p4) if has_report else None
            if bound[0] != "!":
                bound_ref = (reference.toronto_bound_1f1(m, n, p3) if fn == "toronto"
                             else reference.nuttall_bound_1f1(m, n, p3))
        checker.crosscheck(op, parts, value_ref, closed_ref, bound_ref, referenced)


# -- metrics ----------------------------------------------------------------

def _layer_metrics(summary: dict) -> dict:
    tot, attrs = summary["totals"], summary["attrs"]
    ops = max(summary["ops"], 1)
    op_ns = max(summary["op_ns"], 1)

    def names(prefix):
        return [k for k in tot if k.startswith(prefix)]

    def calls(keys):
        return sum(tot[k][0] for k in keys if k in tot)

    def ns(keys, col=1):
        return sum(tot[k][col] for k in keys if k in tot)

    def per(a, b, scale=1.0):
        return a / b * scale if b else 0.0

    def weighted(keys):       # sum of attr value * occurrences
        return sum(int(v) * c for k in keys for v, c in attrs.get(k, {}).items())

    kernels = names("special.")
    gamma = [f"special.{k}" for k in GAMMA_KERNELS]
    cf = sum(attrs.get(k, {}).get(str(BRANCH_CF), 0) for k in gamma)
    m = {
        "special.calls_per_value": per(calls(kernels), ops),
        "special.gamma_calls_per_value": per(calls(gamma), ops),
        "special.gamma_cf_share": per(cf, calls(gamma)),
        "special.gamma_us_per_call": per(ns(gamma), calls(gamma), 1e-3),
        "special.kummer_us_per_call": per(ns(["special.kummer_1f1"]),
                                          calls(["special.kummer_1f1"]), 1e-3),
        "special.self_share": per(ns(kernels, 2), op_ns),
    }
    for layer in ("nuttall", "toronto"):
        series = [f"{layer}.{layer}_series_adaptive", f"{layer}.{layer}_series_truncated"]
        closed = ("nuttall.nuttall_half_integer_closed" if layer == "nuttall"
                  else "toronto.toronto_closed_form_half")
        bound = f"{layer}.{layer}_truncation_bound"
        m[f"{layer}.terms_per_value"] = per(weighted(series), calls(series))
        m[f"{layer}.us_per_term"] = per(ns(series), weighted(series), 1e-3)
        m[f"{layer}.self_us_per_value"] = per(ns(names(f"{layer}."), 2), ops, 1e-3)
        m[f"{layer}.bound_us_per_report"] = per(ns([bound]), calls([bound]), 1e-3)
        m[f"{layer}.closed_us_per_value"] = per(ns([closed]), calls([closed]), 1e-3)
    plain, gauss = ["oracle.value"], ["oracle.value:gauss"]
    values = calls(plain + gauss)
    m.update({
        "oracle.us_per_value": per(ns(plain), calls(plain), 1e-3),
        "oracle.gauss_us_per_value": per(ns(gauss), calls(gauss), 1e-3),
        "oracle.subdivisions_per_value": per(weighted(plain + gauss),
                                             values - ns(plain + gauss, 3)),
        "oracle.refused_frac": per(ns(plain + gauss, 3), values),
        "oracle.share": per(ns(plain + gauss), op_ns),
    })
    return m


def _fresh_python(code: str, *flags: str) -> tuple[float, str, str]:
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True,
                          text=True, env=_env(), cwd=ROOT, check=True)
    return time.perf_counter() - t0, proc.stdout, proc.stderr


def _outer_import_s(importtime_log: str, roots: tuple[str, ...]) -> float:
    """Cumulative seconds of the outermost imports of the given packages,
    from `python -X importtime` output (children are printed first)."""
    rows = []
    for line in importtime_log.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cum, name = line.split("|")
        if not cum.strip().isdigit():
            continue
        depth = len(name) - len(name.lstrip())
        rows.append((depth, int(cum), name.strip()))
    total, stack = 0, []
    for depth, cum, name in reversed(rows):        # parents before children
        while stack and stack[-1][0] >= depth:
            stack.pop()
        parent = stack[-1][1] if stack else ""
        if name.split(".")[0] in roots and parent.split(".")[0] not in roots:
            total += cum
        stack.append((depth, name))
    return total * 1e-6


def _cli_metrics(inproc_s: float) -> dict:
    bare = statistics.median(_fresh_python("pass")[0] for _ in range(CLI_PROBES))
    probe = ("import sys, time; t = time.perf_counter(); import nuttq.cli; "
             "print(time.perf_counter() - t, int('scipy' in sys.modules))")
    runs = [_fresh_python(probe)[1].split() for _ in range(CLI_PROBES)]
    import_s = statistics.median(float(r[0]) for r in runs)
    log = _fresh_python("import nuttq.cli", "-X", "importtime")[2]
    return {
        "cli.import_s": import_s,
        "cli.scipy_imported": float(runs[-1][1]),
        "cli.interpreter_s": bare,
        # share of the `import nuttq.cli` time spent importing numpy and scipy
        "cli.numpy_scipy_share": (_outer_import_s(log, ("numpy", "scipy"))
                                  / _outer_import_s(log, ("nuttq",))),
        "cli.inproc_us_per_invocation": inproc_s * 1e6,
        "cli.compute_share": inproc_s / (inproc_s + import_s + bare),
    }


# -- provenance -------------------------------------------------------------

def _provenance(args) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy", "mpmath"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            **versions, "git_commit": commit, "src_sha256": digest.hexdigest()[:16],
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace}


# -- the run ----------------------------------------------------------------

def run(args) -> tuple[dict, dict]:
    """Returns (final result, report)."""
    if not (SRC / "nuttq" / "__init__.py").is_file():
        raise BenchError(f"no package source at {SRC}/nuttq")
    import reference

    golden_misses = reference.verify_golden(SRC / "nuttq" / "data" / "golden.txt")
    w, seed = args.workload, str(args.seed)
    report: dict = {"provenance": _provenance(args)}
    verdicts = checks.Verdicts()

    if args.trace:
        _setup, res = _worker(w, "--seed", seed, "--seconds", str(args.seconds),
                              "--trace", "1")
        plain, traced = res["plain"], res["traced"]
        plain_out, traced_out = plain["outputs"], traced["outputs"]
        ops = _take(workloads.generator(w, args.seed), len(plain_out))
        # tracing must not change a single output; for cli_cold the untraced
        # in-process output stands in for the cold one
        changed = sum(a != b for a, b in zip(plain_out, traced_out))
        _check(w, ops, traced_out, verdicts,
               cold=[[o[0][0], o[1]] for o in plain_out] if w == "cli_cold" else None)
        overhead = traced["elapsed_s"] / plain["elapsed_s"] - 1.0
        inproc = (statistics.fmean(plain["latency_s"]) if w == "cli_cold"
                  else _inproc_cli_s(args.seed))
        layers = {**_layer_metrics(res["trace"]), **_cli_metrics(inproc),
                  "workload.repeat_frac": _repeat_frac(w, ops),
                  "trace.overhead_frac": overhead}
        report["trace"] = {"untraced_ops_per_s": len(ops) / plain["elapsed_s"],
                           "traced_ops_per_s": len(ops) / traced["elapsed_s"],
                           "overhead_frac": overhead, "outputs_changed": changed,
                           "spans_file": _write_spans(w, args.seed, res["spans"])}
        final_metrics = {k: {"value": layers[k], "unit": PER_LAYER[k]} for k in PER_LAYER}
        samples: dict[str, tuple[float, int]] = {}
    else:
        setups = [_worker(w, "--setup-only")[0]
                  for _ in range(SETUP_RUNS - SETUP_RUNS // 2)]
        if w == "cli_cold":
            loop = _cold_loop(args.seed, args.seconds)
            setup, res = _worker(w, "--seed", seed, "--count", str(len(loop["outputs"])))
            ops = _take(workloads.cli_cold(args.seed), len(loop["outputs"]))
            _check(w, ops, res["plain"]["outputs"], verdicts, cold=loop["outputs"])
            report["inproc_us_per_invocation"] = statistics.fmean(
                res["plain"]["latency_s"]) * 1e6
        else:
            setup, res = _worker(w, "--seed", seed, "--seconds", str(args.seconds))
            loop = res["plain"]
            ops = _take(workloads.generator(w, args.seed), len(loop["outputs"]))
            _check(w, ops, loop["outputs"], verdicts)
            loop["maxrss_kb"] = res["maxrss_kb"]
        # more set-ups after the loop, so the median spans the run
        setups += [setup] + [_worker(w, "--setup-only")[0] for _ in range(SETUP_RUNS // 2)]
        lat = loop["latency_s"]
        ref_rate, ref_p50, speed = _at_reference_speed(lat, loop["probes"])
        ranked = sorted(lat)
        # set-up at the reference speed too: a single short probe after
        # "ready" swings more than set-up time does, so the run's median
        # speed scales it, which takes out drift slower than a run
        samples = {"setup_s": (statistics.median(setups) * speed, len(setups)),
                   "setup_s_as_timed": (statistics.median(setups), len(setups)),
                   "ref_ops_per_s": (ref_rate, len(lat)),
                   "ref_op_us_p50": (ref_p50 * 1e6, len(lat)),
                   "peak_rss_mb": (loop["maxrss_kb"] / 1024.0, 1),
                   "ops_per_s": (len(lat) / sum(lat), len(lat)),
                   "op_us_p50": (statistics.median(ranked) * 1e6, len(lat)),
                   "host_speed": (speed, len(loop["probes"]) // 3)}
        if len(lat) >= 1000:    # p99 needs ten samples beyond it
            samples["op_us_p99"] = (_quantile(ranked, 0.99) * 1e6, len(lat))
        final_metrics = {k: {"value": samples[k][0], "unit": END_TO_END[k]}
                         for k in END_TO_END}
        changed = 0
        report["repeat_frac"] = _repeat_frac(w, ops)

    v = verdicts
    # failed_frac counts the known defects too; the result line's `failed`
    # only the ops that make the run incorrect
    samples["failed_frac"] = ((v.failed + v.known_defect) / max(v.attempted, 1),
                              v.attempted)
    samples["max_rel_err"] = (v.max_rel_err, v.referenced)
    report.update({
        "metrics": {k: {"value": val, "unit": REPORT_UNITS[k], "samples": n}
                    for k, (val, n) in samples.items()},
        "checks": {"attempted": v.attempted, "failed": v.failed,
                   "known_defect": v.known_defect,
                   "not_applicable_parts": v.not_applicable,
                   "referenced_ops": v.referenced,
                   "failure_classes": dict(v.classes),
                   "max_oracle_miss_ratio": v.max_oracle_miss_ratio,
                   "max_cancel_ratio": v.max_cancel_ratio,
                   "golden_misses": golden_misses, "unexpected": v.unexpected},
    })
    final = {"correct": v.correct and not golden_misses and changed == 0,
             "attempted": v.attempted, "failed": v.failed, "metrics": final_metrics}
    return final, report


def _take(stream, count: int) -> list:
    return [next(stream) for _ in range(count)]


def _repeat_frac(workload: str, ops: list) -> float:
    return 0.0 if workload == "cli_cold" else workloads.repeat_frac(ops)


def _inproc_cli_s(seed: int) -> float:
    """Mean in-process `cli.main` time over one block of the cli_cold mix."""
    _setup, res = _worker("cli_cold", "--seed", str(seed),
                          "--count", str(len(workloads.CLI_BLOCK)))
    return statistics.fmean(res["plain"]["latency_s"])


def _write_spans(workload: str, seed: int, spans: list) -> str:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}-seed{seed}.jsonl"
    with path.open("w") as fh:
        for name, t0, t1, parent, op, attr in spans:
            fh.write(json.dumps({"name": name, "start_ns": t0, "end_ns": t1,
                                 "parent": parent, "op": op, "attr": attr}) + "\n")
    return str(path.relative_to(ROOT))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        final, report = run(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    for name, m in report["metrics"].items():
        print(f"{name:<28} {m['value']:<24.10g} {m['unit']:<6} n={m['samples']}")
    if args.trace:
        for name, m in final["metrics"].items():
            print(f"{name:<36} {m['value']:<24.10g} {m['unit']}")
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
