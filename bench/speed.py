"""The machine's speed at a moment, read from a fixed piece of work.

The shared host the benchmark runs on changes speed by up to 60% for
seconds at a time: a loop that takes 13 ms in one second takes 19 ms in the
next, in the same process, while nothing else of the benchmark runs. A run
of tens of seconds can fall mostly in the fast state or mostly in the slow
one, so its wall times differ from the next run's by more than the bound a
change must meet.

``probe`` times a fixed piece of work: an interpreter loop and a few small
numpy reductions, the two kinds of work the requests are made of (about
1.1 ms at full speed). The worker probes between every two requests, and
the run probes around every set-up launch. ``corrected`` scales a wall time
by how much slower than ``REFERENCE_S`` the probes on either side of it ran:
it is the time the same work would have taken at the reference speed, in the
same unit. The probe is benchmark code that no change under test touches,
so a change that makes causalog slower makes the corrected times longer just
as it makes the wall times longer. Runs print both.
"""

from __future__ import annotations

import time

import numpy as np

# The probe's wall time at full speed on the 2-CPU Xeon host (Python 3.11.7,
# numpy 2.4.6) where the benchmark was defined; only the ratio to it enters
# a metric.
REFERENCE_S = 1.1e-3
_VECTOR = np.ones(1 << 15)


def probe() -> float:
    """Wall time of 10,000 multiply-adds in the interpreter and 20 scaled
    sums over 32k floats."""
    start = time.perf_counter()
    total = 0
    for i in range(10_000):
        total += i * i
    for _ in range(20):
        (_VECTOR * 1.5).sum()
    return time.perf_counter() - start


def corrected(wall: float, before: float, after: float) -> float:
    """``wall`` at the reference speed, from the probes just before and just
    after it."""
    return wall * REFERENCE_S / ((before + after) / 2)
