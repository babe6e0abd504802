"""Steadiness: one workload run N times on one commit, seeds first..first+N-1.

    python3 perfbench/steady.py --workload crosscheck --runs 10

Each run is untraced and as long as BENCHMARK.json's run_seconds.  Prints,
for every end-to-end metric, the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and their distance as a share of
the median, next to the bound BENCHMARK.json gives the metric.  A spread under a third of its bound is marked ``ok``; set the
bounds from these figures.  The last line is the same table as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values: dict[str, list[float]] = {}
    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, cwd=ROOT)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        runs.append({"seed": seed, "correct": result["correct"],
                     "attempted": result["attempted"], "failed": result["failed"]})
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(
                  f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()),
              flush=True)
        for k, m in result["metrics"].items():
            values.setdefault(k, []).append(m["value"])

    table = {}
    for k, vals in values.items():
        med = statistics.median(vals)
        q1, _q2, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / abs(med) if med else 0.0
        bound = bounds.get(k)
        table[k] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
                    "ok": bound is None or spread < bound / 3}
        print(f"{k:<36} median {med:<14.6g} q1 {q1:<14.6g} q3 {q3:<14.6g} "
              f"spread {spread:.4f}" + (f"  bound {bound}  {'ok' if table[k]['ok'] else 'WIDE'}"
                                        if bound is not None else ""))
    print(json.dumps({"workload": args.workload, "seconds": seconds, "runs": runs,
                      "metrics": table}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
