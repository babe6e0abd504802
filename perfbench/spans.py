"""Spans around the package's layer boundaries, recorded from outside it.

``Tracer.install`` rebinds the public functions of ``nuttq.nuttall``,
``nuttq.toronto`` and ``nuttq.oracle``, and the ``nuttq.special`` kernels as
those modules imported them, in every package module that holds a
reference, so calls between layers and within a layer both pass through a
recording wrapper.  A span is (name, start_ns, end_ns, parent, op, attr);
attr carries what the layer metrics need: the incomplete-gamma branch
(classified from the arguments, x < a + 1 is the series branch), terms
summed, oracle subdivisions, or -1 when the call raised.

Spans of each op are folded into per-name totals when the op ends, so the
run keeps bounded memory; the spans of the first ops, up to KEEP_SPANS,
are kept whole and written out at the end.
"""

from __future__ import annotations

import time
from collections import defaultdict

KEEP_SPANS = 20_000

SPECIAL_KERNELS = ("upper_inc_gamma_log", "upper_inc_gamma", "lower_inc_gamma_log",
                   "lower_inc_gamma", "bessel_i_scaled", "kummer_1f1")
GAMMA_KERNELS = SPECIAL_KERNELS[:4]
SERIES = ("nuttall.nuttall_series_adaptive", "nuttall.nuttall_series_truncated",
          "toronto.toronto_series_adaptive", "toronto.toronto_series_truncated")
RAISED = -1
BRANCH_SERIES, BRANCH_CF, BRANCH_ZERO = 0, 1, 2


def _gamma_branch(args, _result) -> int:
    a, x = args[0], args[1]
    if x == 0.0:
        return BRANCH_ZERO
    return BRANCH_SERIES if x < a + 1.0 else BRANCH_CF


def _terms(_args, result) -> int:
    return result.terms_used


def _subdivisions(_args, result) -> int:
    return result.subdivisions


def _is_gauss(args, kwargs) -> bool:
    # oracle_*(p1, p2, p3, p4, tol, scheme)
    return kwargs.get("scheme", args[5] if len(args) > 5 else "adaptive") == "gauss"


class Tracer:
    """Records spans for one worker process; see the module docstring."""

    def __init__(self):
        self.spans: list = []         # current op: [name, t0, t1, parent, attr]
        self.stack: list[int] = []
        self.op = -1
        self.kept: list = []
        # name -> [calls, total_ns, self_ns, raised]; attr name -> Counter
        self.totals = defaultdict(lambda: [0, 0, 0, 0])
        self.attrs = defaultdict(lambda: defaultdict(int))
        self.op_ns = 0
        self.ops = 0
        self._bindings: list = []

    def _wrap(self, name: str, fn, attr, oracle: bool = False):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter_ns
        gauss_name = name + ":gauss"

        def traced(*args, **kwargs):
            idx = len(spans)
            span_name = gauss_name if oracle and _is_gauss(args, kwargs) else name
            span = [span_name, 0, 0, stack[-1] if stack else -1, 0]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[2] = clock()
                span[4] = RAISED
                stack.pop()
                raise
            span[2] = clock()
            stack.pop()
            if attr is not None:
                span[4] = attr(args, result)
            return result

        return traced

    def install(self, nuttq) -> None:
        """Rebind layer functions in every nuttq module that references them;
        ``disable`` puts the originals back and ``enable`` the wrappers."""
        from nuttq import cli, nuttall, oracle, special, toronto

        wrappers = {}
        for kernel in SPECIAL_KERNELS:
            original = getattr(special, kernel)
            attr = _gamma_branch if kernel in GAMMA_KERNELS else None
            wrappers[id(original)] = self._wrap(f"special.{kernel}", original, attr)
        for module in (nuttall, toronto, oracle):
            layer = module.__name__.rsplit(".", 1)[1]
            for name in module.__all__:
                original = getattr(module, name)
                if not callable(original) or isinstance(original, type):
                    continue
                full = f"{layer}.{name}"
                is_oracle = name.startswith("oracle_")
                attr = (_terms if full in SERIES
                        else _subdivisions if is_oracle else None)
                wrappers[id(original)] = self._wrap(full, original, attr, is_oracle)
        self._bindings = [(module, name, value, wrappers[id(value)])
                          for module in (nuttq, nuttall, toronto, oracle, cli)
                          for name, value in vars(module).items()
                          if id(value) in wrappers]
        self.enable()

    def enable(self) -> None:
        for module, name, _original, wrapper in self._bindings:
            setattr(module, name, wrapper)

    def disable(self) -> None:
        for module, name, original, _wrapper in self._bindings:
            setattr(module, name, original)

    def begin_op(self) -> None:
        self.op += 1
        self.spans.clear()
        self.stack.clear()
        self.spans.append(["op", time.perf_counter_ns(), 0, -1, 0])
        self.stack.append(0)

    def end_op(self) -> None:
        spans = self.spans
        spans[0][2] = time.perf_counter_ns()
        child_ns = [0] * len(spans)
        for span in spans[1:]:
            child_ns[span[3]] += span[2] - span[1]
        for idx, (name, t0, t1, parent, attr) in enumerate(spans):
            tot = self.totals[name]
            tot[0] += 1
            tot[1] += t1 - t0
            tot[2] += t1 - t0 - child_ns[idx]
            if attr == RAISED:
                tot[3] += 1
            else:
                self.attrs[name][attr] += 1
            if name.startswith("oracle.oracle_") \
                    and not spans[parent][0].startswith("oracle.oracle_"):
                # outermost oracle call: one oracle value
                key = ("oracle.value:gauss" if name.endswith(":gauss")
                       else "oracle.value")
                out = self.totals[key]
                out[0] += 1
                out[1] += t1 - t0
                if attr == RAISED:
                    out[3] += 1
                else:
                    self.attrs[key][attr] += 1
        self.ops += 1
        self.op_ns += spans[0][2] - spans[0][1]
        if len(self.kept) < KEEP_SPANS:
            self.kept.extend([name, t0, t1, parent, self.op, attr]
                             for name, t0, t1, parent, attr in spans)

    def summary(self) -> dict:
        return {"ops": self.ops, "op_ns": self.op_ns,
                "totals": {k: v for k, v in self.totals.items()},
                "attrs": {k: dict(v) for k, v in self.attrs.items()}}
