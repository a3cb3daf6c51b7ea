"""A fixed stdlib job that gauges the host's speed during a run.

    python3 bench/probe.py

The host this benchmark runs on is shared, and its speed drifts by a fifth
over tens of seconds; a run's medians follow it. So each run also times this
job between its operations, and reports its times scaled to a host on which
the job takes REFERENCE_S. The job uses nothing from the package under test,
so a change to the package cannot change its time.

cli-cold runs it as a fresh interpreter ("fresh"): an interpreter start and
stdlib imports, as every CLI call pays, then a root bisected in
high-precision Decimal arithmetic, the kind of work the limit-base and root
bisections do. The in-process workloads call bisect(WARM_STEPS) in their
worker ("warm").
"""

import argparse  # noqa: F401  (loaded as the CLI loads them)
import dataclasses  # noqa: F401
import json  # noqa: F401
from decimal import Decimal, localcontext
from fractions import Fraction  # noqa: F401

DIGITS = 80
WORD = 400         # digits of the expansion evaluated at each step
STEPS = 270        # a fresh-interpreter probe
WARM_STEPS = 30    # a probe inside a warm worker process, short enough to run often

# The probes' median times on a 2-vCPU Xeon VM at 2.1 GHz under Python 3.11.
# The benchmark scales its end-to-end times to a host on which the probe
# takes this long (see run.py).
REFERENCE_S = {"fresh": 0.20, "warm": 0.0095}


def thue_morse(n: int) -> list:
    return [bin(i).count("1") % 2 for i in range(n)]


def bisect(steps: int = STEPS) -> Decimal:
    """The base q in (2, 3) at which the digit word 1 + Thue-Morse(WORD) sums
    to 1, bisected in `steps` steps, with the word's value taken by Horner's rule
    at every step."""
    digits = [1 + t for t in thue_morse(WORD)]
    with localcontext() as ctx:
        ctx.prec = DIGITS + 30
        lo, hi = Decimal(2), Decimal(3)
        for _ in range(steps):
            mid = (lo + hi) / 2
            value = Decimal(0)
            for d in reversed(digits):
                value = (value + d) / mid
            if value > 1:
                lo = mid
            else:
                hi = mid
        return lo


if __name__ == "__main__":
    bisect()
