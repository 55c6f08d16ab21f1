"""The machine-speed reference that times are rescaled by.

On a shared host the same op can take 1.8 times longer from one minute to
the next, because other tenants slow the CPU. A run therefore also times a
fixed reference kernel, interleaved with its ops, and reports every time
rescaled to a machine on which that kernel takes ``NOMINAL_S``: measured
time x NOMINAL_S / reference time measured alongside it. The kernel mixes
what montmort's ops spend their time on: interpreted loops, dict updates,
Fraction arithmetic and big-integer products. It never touches montmort, so
no change to montmort can move it.
"""

from __future__ import annotations

import bisect
import time
from fractions import Fraction

#: The kernel's typical time on the reference machine (a shared 2-vCPU
#: x86-64 VM, CPython 3.11, where it read 0.9-2.0 ms); rescaled times are
#: "at this speed".
NOMINAL_S = 0.0015
#: A time-bounded loop takes a reference sample before an op when the last
#: sample is older than this; the host's speed shifts on a scale of seconds.
SAMPLE_EVERY_S = 0.1
#: Repeats per sample; the fastest is kept, which drops a repeat that an
#: interrupt happened to hit.
REPEATS = 3


def _kernel() -> int:
    acc = Fraction(0)
    for i in range(1, 120):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)
    total = 0
    table = {}
    for j in range(4000):
        total += j & 7
        table[j & 63] = total
    big = 3 ** 900 * 7 ** 700
    return acc.denominator % 97 + total + big % 1000003 + len(table)


def reference_s() -> float:
    """One sample: the fastest of REPEATS timed runs of the kernel."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best


def rescale(spans: list[tuple[float, float]], samples: list[tuple[float, float]]) -> list[float]:
    """Rescale each (start, end) span by the reference samples (taken at, value) around it.

    A span uses the mean of the last sample taken before it started and the
    first taken after it ended; ``samples`` must bracket every span.
    """
    times = [t for t, _ in samples]
    scaled = []
    for start, end in spans:
        before = samples[bisect.bisect_right(times, start) - 1][1]
        after = samples[bisect.bisect_left(times, end)][1]
        scaled.append((end - start) * NOMINAL_S * 2 / (before + after))
    return scaled
