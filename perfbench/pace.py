"""Scaling times to a nominal machine speed.

The machine this benchmark runs on is shared: a fixed CPU-bound loop
runs up to ±15 % slower or faster from one minute to the next, and the
engine's statements drift with it, which hides the differences between
commits the bounds are meant to catch.  So the workloads time a fixed
loop of pure-Python work (no engine code) between their statements,
and scale every time they report by ``NOMINAL_S`` over that loop's
median time in the same stretch of the run.  A reported time is the
time the work would have taken with the loop at ``NOMINAL_S``; the run
also reports ``speed_factor``, the scale it applied, so the wall-clock
figure is the reported one divided by it.
"""

from __future__ import annotations

import statistics
import time

NOMINAL_S = 0.004  # the loop's time at nominal speed: about this machine's


def sample() -> float:
    """Seconds one run of the fixed loop takes now."""
    started = time.perf_counter()
    counts: dict = {}
    for i in range(20000):
        counts[i % 97] = counts.get(i % 97, 0) + i * 3 % 7
    return time.perf_counter() - started


def factor(samples: list) -> float:
    """The scale for times measured while ``samples`` were taken."""
    return NOMINAL_S / statistics.median(samples)
