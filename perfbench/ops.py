"""What one op of each in-process workload calls, and how its output is kept.

An op returns a list of parts.  A part is a list of floats, or
``["!", ExceptionName]`` when the call raised; the parent process checks the
parts against references after the timed loop.  Module attributes are looked
up at call time (``nuttall.marcum_q``), so the traced run sees calls made
through functions it rebinds.  Stdlib only, apart from the package itself.
"""

from __future__ import annotations

import contextlib
import io
import math
import struct
from pathlib import Path

from workloads import CROSSCHECK_ORACLE_TOL, CROSSCHECK_TERMS

# floats per part, for the workloads whose outputs go to a records file
WIDTHS = {"series_box": (2,), "crosscheck": (1, 3, 1, 2)}


class Records:
    """Latency and outputs of each op of one loop.

    For series_box and crosscheck every op is written to a binary file as
    it completes (latency, then per part a code byte and its floats), so
    the worker holds the same memory whatever its throughput.  A raised
    part is stored as code = 1 + the index of its exception name, with NaNs
    for its floats.  The few cli_cold ops are kept in memory."""

    def __init__(self, workload: str, path: Path):
        self.widths = WIDTHS.get(workload)
        self.names: list[str] = []
        self.count = 0
        if self.widths is None:
            self.latency_s, self.items = [], []
            return
        self.path = path
        self.fh = path.open("wb")
        self.struct = _record_struct(self.widths)
        self.nans = [[math.nan] * width for width in self.widths]

    def add(self, latency: float, parts: list) -> None:
        self.count += 1
        if self.widths is None:
            self.latency_s.append(latency)
            self.items.append(parts)
            return
        fields = [latency]
        for part, nans in zip(parts, self.nans):
            if part and part[0] == "!":
                if part[1] not in self.names:
                    self.names.append(part[1])
                fields.append(self.names.index(part[1]) + 1)
                fields.extend(nans)
            else:
                fields.append(0)
                fields.extend(part)
        self.fh.write(self.struct.pack(*fields))

    def payload(self) -> dict:
        if self.widths is None:
            return {"latency_s": self.latency_s, "items": self.items}
        self.fh.close()
        return {"file": str(self.path), "names": self.names}

    def discard(self) -> None:
        if self.widths is not None:
            self.fh.close()
            self.path.unlink()

    @staticmethod
    def unpack(workload: str, payload: dict) -> tuple[list[float], list]:
        """(latencies, one list of parts per op); a records file is read and
        removed."""
        widths = WIDTHS.get(workload)
        if widths is None:
            return payload["latency_s"], payload["items"]
        path = Path(payload["file"])
        data = path.read_bytes()
        path.unlink()
        names = payload["names"]
        latency, outputs = [], []
        for fields in _record_struct(widths).iter_unpack(data):
            latency.append(fields[0])
            parts, i = [], 1
            for width in widths:
                code = fields[i]
                parts.append(["!", names[code - 1]] if code
                             else list(fields[i + 1:i + 1 + width]))
                i += 1 + width
            outputs.append(parts)
        return latency, outputs


def _record_struct(widths: tuple[int, ...]) -> struct.Struct:
    return struct.Struct("<d" + "".join(f"B{width}d" for width in widths))


def _part(call):
    # the op boundary: any exception is recorded and checked, never fatal
    try:
        return call()
    except Exception as exc:
        return ["!", type(exc).__name__]


def series_box(lib, op) -> list:
    """One adaptive-series value: [[value, terms_used]] (terms 0 for marcum_q)."""
    fn, m, n, p3, p4, tol = op
    nuttall, toronto = lib.nuttall, lib.toronto

    def call():
        if fn == "nuttall":
            res = nuttall.nuttall_series_adaptive(
                nuttall.NuttallParams(m, n, p3, p4), tol=tol)
        elif fn == "marcum":
            return [nuttall.marcum_q(m, p3, p4, tol=tol), 0]
        else:
            res = toronto.toronto_series_adaptive(
                toronto.TorontoParams(m, n, p3, p4), tol=tol)
        return [res.value, res.terms_used]

    return [_part(call)]


def crosscheck(lib, op) -> list:
    """One grid point as `nuttq compare --with-bounds` computes it.

    Parts: [truncated 20-term value], [oracle value, abs_err_est,
    subdivisions], [1F1 bound], [bound_value, dominated_quantity].  Series,
    bound and report values are normalized (Q / a^n); the oracle part is in
    the oracle's own scale (unnormalized Q for nuttall and nuttall_norm).
    """
    fn, m, n, p3, p4, scheme = op
    nuttall, toronto, oracle = lib.nuttall, lib.toronto, lib.oracle
    tol, terms = CROSSCHECK_ORACLE_TOL, CROSSCHECK_TERMS
    if fn == "toronto":
        params = toronto.TorontoParams
        truncated, report = toronto.toronto_series_truncated, toronto.toronto_truncation_bound
        bound = lambda: [toronto.toronto_upper_bound_1f1(m, n, p3)]  # noqa: E731
        orc = lambda: oracle.oracle_toronto(m, n, p3, p4, tol=tol, scheme=scheme)  # noqa: E731
    else:
        params = nuttall.NuttallParams
        truncated, report = nuttall.nuttall_series_truncated, nuttall.nuttall_truncation_bound
        bound = lambda: [nuttall.nuttall_upper_bound_1f1(m, n, p3)]  # noqa: E731
        if fn == "marcum":
            orc = lambda: oracle.oracle_marcum(m, p3, p4, tol=tol, scheme=scheme)  # noqa: E731
        else:
            orc = lambda: oracle.oracle_nuttall(m, n, p3, p4, tol=tol, scheme=scheme)  # noqa: E731

    def oracle_part():
        ov = orc()
        return [ov.value, ov.abs_err_est, ov.subdivisions]

    def report_part():
        rep = report(params(m, n, p3, p4), terms)
        return [rep.bound_value, rep.dominated_quantity]

    return [_part(lambda: [truncated(params(m, n, p3, p4), terms).value]),
            _part(oracle_part), _part(bound), _part(report_part)]


def cli_inproc(lib, argv) -> list:
    """One in-process `cli.main(argv)`: [[exit_code], stdout text]."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = lib.cli.main(argv)
    return [[rc], out.getvalue()]


RUNNERS = {"series_box": series_box, "crosscheck": crosscheck,
           "cli_cold": cli_inproc}
