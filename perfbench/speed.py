"""Scaling measured times to one reference CPU speed.

The benchmark runs on shared machines whose CPU speed drifts, from one
second to the next and over minutes, by up to half while the program
stays the same.  A fixed chunk of pure-Python work, which does not touch
turankit, is therefore timed every ``INTERVAL_S`` seconds between items.
Each item's time is multiplied by ``REFERENCE_S`` over the chunk's time
around it (the median of the ``2 * WINDOW + 1`` nearest samples), which
gives the time the item would take on a machine where the chunk takes
``REFERENCE_S``.  The raw times are printed beside the scaled ones.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.006     # the chunk's time on an unloaded 2.1 GHz Xeon vCPU
INTERVAL_S = 0.2        # item time between two samples
WINDOW = 2              # samples on each side that set an item's scale
SETUP_SAMPLES = 5       # samples taken right after set-up


def chunk_seconds() -> float:
    """Time one fixed chunk: small-Fraction and int arithmetic, the two
    kinds of work the interpreter does for turankit."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 400):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)
    s = 0
    for i in range(60000):
        s += i * i
    return time.perf_counter() - t0


class Calibrator:
    """Samples the chunk at most every ``INTERVAL_S`` seconds."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent_s = 0.0
        self._last = float("-inf")

    def tick(self) -> int:
        """Take a sample if one is due; return the index of the latest."""
        now = time.perf_counter()
        if now - self._last > INTERVAL_S:
            self.samples.append(chunk_seconds())
            self._last = time.perf_counter()
            self.spent_s += self._last - now
        return len(self.samples) - 1

    def burst(self, count: int) -> float:
        """Take ``count`` samples now; return the scale factor they give."""
        for _ in range(count):
            self.samples.append(chunk_seconds())
        return scale(self.samples[-count:])


def scale(samples: list[float]) -> float:
    """Factor that turns a time measured at these samples' speed into the
    time at the reference speed."""
    return REFERENCE_S / statistics.median(samples)


def local_scale(samples: list[float], index: int) -> float:
    return scale(samples[max(0, index - WINDOW):index + WINDOW + 1])
