"""Host speed probe: a fixed pure-Python loop timed in short bursts.

On the shared 2-vCPU host this benchmark was written on, the speed of a
core drifts by up to 1.7x for minutes at a time as other tenants come and
go, and every timing of the package moves with it.  The probe runs between
ops, in the measured process (for cli_cold, in a fresh process before each
invocation), so each stretch of ops has a speed reading taken under the
same conditions.  Dividing a timing by the reading gives
the timing at the reference speed REF_RATE, which moves with the code and
hardly with the host.  The probe is interpreter-bound, like the package.
"""

from __future__ import annotations

import time

REF_RATE = 80_000.0   # probe rounds per second at the reference host speed
BURST_S = 0.002       # one burst of rounds
EVERY_S = 0.05        # a burst between ops at most this often
CHILD_PROBE_S = 0.05  # one longer burst in a fresh process (cli_cold)


def burst(budget_s: float = BURST_S) -> tuple[int, float]:
    """Run probe rounds for about budget_s; return (rounds, seconds)."""
    clock = time.perf_counter
    rounds = 0
    t0 = clock()
    while True:
        s = 0
        for i in range(200):
            s += i * i
        rounds += 1
        elapsed = clock() - t0
        if elapsed >= budget_s:
            return rounds, elapsed


if __name__ == "__main__":
    # a probe in a fresh process: prints "rounds seconds"
    print("%d %.9f" % burst(CHILD_PROBE_S))
