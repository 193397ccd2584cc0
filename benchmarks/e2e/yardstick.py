"""A fixed kernel that says how slow this machine is *right now*.

The box is a shared VM whose neighbours slow everything down by 1.2-1.7x for
minutes at a time (see the README's noise protocol), so a wall-clock reading
says as much about the minute it was taken in as about the code.  The
yardstick is work that never changes — none of it touches ``repro`` — run
between the measured operations of every run.  One pass reads the machine's
*slowness*: 1.0 on an idle machine of the class the benchmark was defined on,
1.5 when the same work takes half as long again.  A run's time metrics are
reported *calibrated*: divided by the run's own slowness, i.e. as the seconds
the work takes on the reference machine with nobody else on it.  The raw
readings and every pass are in each result record.
"""

from __future__ import annotations

import time

import numpy as np

#: Seconds the two halves of a pass take on an idle core of the reference
#: machine (2.1 GHz Xeon VM).  Only scales: changing them multiplies every
#: time metric of every commit alike.
PYTHON_REFERENCE_S = 0.045
MEMORY_REFERENCE_S = 0.084

_KEYS = np.random.default_rng(20150413).integers(0, 1 << 40, 250_000)


def one_pass() -> float:
    """Slowness now: the mean of an interpreter-bound and a memory-bound half.

    The program is both (dict and attribute churn beside sorts and gathers
    over arrays larger than the core's private caches) and the neighbours
    slow the two kinds of work by different amounts, so each half is read
    against its own reference and they weigh the same.
    """
    start = time.perf_counter()
    table: dict[int, int] = {}
    total = 0
    for i in range(400_000):
        table[i & 8191] = i
        total += i * 3
    python_done = time.perf_counter()
    order = np.argsort(_KEYS, kind="stable")
    np.unique(_KEYS[order] >> 20)
    memory_done = time.perf_counter()
    return 0.5 * (
        (python_done - start) / PYTHON_REFERENCE_S
        + (memory_done - python_done) / MEMORY_REFERENCE_S
    )


class Yardstick:
    """The passes of one run."""

    def __init__(self) -> None:
        one_pass()  # warm-up: the first pass of a process reads 1.2-1.3x
        self.passes: list[float] = []

    def measure(self) -> float:
        self.passes.append(one_pass())
        return self.passes[-1]
