"""The measured process: imports the package, runs one workload's ops.

Started by run.py with the checkout's ``src`` first on the path.  It prints
``ready`` once the modules the workload needs are imported (run.py's
set-up clock stops there), then runs a closed loop: one caller, the next
op starts when the previous one returns.  Each op's latency and outputs go to a records
file under perfbench/out/ as the op completes (see ops.Records).  The last
stdout line is one JSON object naming those files; run.py reads them,
removes them and checks the outputs.

    python3 perfbench/worker.py --workload series_box --seed 1 --seconds 10
    python3 perfbench/worker.py --workload cli_cold --seed 1 --count 10
    python3 perfbench/worker.py --workload crosscheck --seed 1 --seconds 4 --trace 1
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import os
import resource
import sys
import time
from array import array
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))
OUT = HERE / "out"

import hostspeed  # noqa: E402
import ops  # noqa: E402
import workloads  # noqa: E402

# what "ready" means per workload: the modules its ops call are imported;
# nothing else is, so an import the package makes lazy stays out of memory
READY_IMPORTS = {"series_box": ("nuttq.nuttall", "nuttq.toronto"),
                 "crosscheck": ("nuttq.nuttall", "nuttq.toronto", "nuttq.oracle"),
                 "cli_cold": ("nuttq.cli",)}
WARMUP_OPS = 5
TRACE_CHUNK_S = 0.5


def _lib(workload: str) -> SimpleNamespace:
    """The workload's modules, by short name, plus the package itself."""
    modules = {name.rsplit(".", 1)[1]: importlib.import_module(name)
               for name in READY_IMPORTS[workload]}
    return SimpleNamespace(nuttq=sys.modules["nuttq"], **modules)


class Loop:
    """Latencies and outputs of the ops one loop ran (see ops.Records), its
    busy time, and host speed probes taken between the ops as (op index,
    rounds, seconds)."""

    def __init__(self, workload: str, tag: str):
        OUT.mkdir(exist_ok=True)
        self.records = ops.Records(workload, OUT / f"records-{os.getpid()}-{tag}.bin")
        self.probes = array("d")
        self.elapsed_s = 0.0

    def run(self, lib, runner, stream, deadline=None, count=None, tracer=None,
            keep_ops=False, probe=False) -> list:
        """Closed loop over `stream` until it ends, `deadline` (perf_counter)
        passes or `count` ops ran; returns the ops it ran if `keep_ops`.
        With `probe`, a host speed burst runs between ops every
        hostspeed.EVERY_S; it is not part of any op's latency."""
        clock = time.perf_counter
        done = []
        start = next_probe = clock()
        for op in itertools.islice(stream, count):
            if probe and clock() >= next_probe:
                rounds, secs = hostspeed.burst()
                self.probes.extend((self.records.count, rounds, secs))
                next_probe = clock() + hostspeed.EVERY_S
            if tracer is not None:
                tracer.begin_op()
            t0 = clock()
            out = runner(lib, op)
            t1 = clock()
            if tracer is not None:
                tracer.end_op()
            self.records.add(t1 - t0, out)
            if keep_ops:
                done.append(op)
            if deadline is not None and t1 >= deadline:
                break
        self.elapsed_s += clock() - start
        return done

    def payload(self) -> dict:
        return {"records": self.records.payload(), "probes": self.probes.tolist(),
                "elapsed_s": self.elapsed_s}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    w = args.workload
    lib = _lib(w)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    runner = ops.RUNNERS[w]
    warmup = Loop(w, "warmup")
    warmup.run(lib, runner, workloads.generator(w, -1 - args.seed), count=WARMUP_OPS)
    warmup.records.discard()
    stream = workloads.generator(w, args.seed)
    plain = Loop(w, "plain")
    if not args.trace:
        if args.count is not None:
            plain.run(lib, runner, stream, count=args.count)
        else:
            plain.run(lib, runner, stream, probe=True,
                      deadline=time.perf_counter() + args.seconds)
        result = {"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  "plain": plain.payload()}
    else:
        # half the time untraced; each short chunk of ops is replayed traced
        # right after, so host speed drift hits both sides alike
        from spans import Tracer
        tracer = Tracer()
        tracer.install(lib.nuttq)
        traced = Loop(w, "traced")
        while plain.elapsed_s < args.seconds / 2:
            tracer.disable()
            chunk = plain.run(lib, runner, stream, keep_ops=True,
                              deadline=time.perf_counter() + TRACE_CHUNK_S)
            tracer.enable()
            traced.run(lib, runner, iter(chunk), tracer=tracer)
        tracer.disable()
        result = {"plain": plain.payload(), "traced": traced.payload(),
                  "trace": tracer.summary(), "spans": tracer.kept}
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
