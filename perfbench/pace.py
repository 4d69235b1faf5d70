"""The machine's speed, measured between operations by a fixed piece of work.

The machine the benchmark is written for is shared, and its speed switches
between states second by second: a fixed pure-Python loop runs at one speed
or at about 1.7 times that, in wall time and in CPU time alike, and a whole
run can fall mostly in one state. plopen's operations slow down with it, by
about 1.2 to 1.4 times. So a `Meter` runs `unit` after every operation (and
once more for every `EVERY_S` of the operation), and divides each
operation's wall time by the machine's slowdown around it: the mean time of
the units run just before and just after it, over `REFERENCE_UNIT_S`. The
figures are therefore in *reference seconds*. A change to plopen moves the
operations' wall times and leaves `unit` alone, so it moves the figures by
the same share; a machine that is slower for a while moves both, and the
figures much less.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

# Mean time of one `unit` between operations on the reference machine (2
# cores, Python 3.11.7). Only ratios to it are used; it sets the scale.
REFERENCE_UNIT_S = 350e-6

# One more unit after an operation for every EVERY_S of its wall time, so
# that the units cover the operations evenly in time. They take about 2 % of
# the time on long operations and a tenth on `query`'s 3-ms ones.
EVERY_S = 0.02

# 40,000 rationals in a fixed shuffled order, about 6 MB, built once.
_rng = random.Random("pace")
_HEAP = [Fraction(_rng.randrange(1 << 40), _rng.randrange(1, 1 << 40)) for _ in range(40_000)]
_rng.shuffle(_HEAP)
_STRIDE = 80
_next = 0


def unit() -> int:
    """Fixed exact arithmetic, then a walk over a new slice of the rationals.

    The two halves react to the machine's state differently: the small
    elimination more than plopen's operations do, the scattered reads less.
    Together they slow down about as much as plopen's operations.
    """
    global _next
    rows = [[Fraction(i * 7 + j * j * 3 + 1, j + 2 + i) for j in range(5)] for i in range(4)]
    for c in range(4):
        pivot = rows[c][c]
        for r in range(c + 1, 4):
            f = rows[r][c] / pivot
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    _next = (_next + 1) % _STRIDE
    total = 0
    for x in _HEAP[_next::_STRIDE]:
        total += x.numerator % 97
    return total


def sample() -> float:
    """Wall time of one `unit`."""
    start = time.perf_counter()
    unit()
    return time.perf_counter() - start


def slowdown(samples: list[float]) -> float:
    """The machine's slowdown against the reference while the samples were taken.

    The mean, not the median: the samples fall in two clusters, one per
    state, and the mean follows the share of time spent in each.
    """
    return statistics.fmean(samples) / REFERENCE_UNIT_S


class Meter:
    """Reference times of a sequence of operations, with their wall times."""

    def __init__(self):
        self._before = [sample()]
        self.wall_s = 0.0
        self.reference_s = 0.0

    def add(self, wall: float) -> float:
        """Called right after an operation that took `wall` seconds; its reference time."""
        after = [sample() for _ in range(1 + int(wall / EVERY_S))]
        reference = wall / slowdown(self._before + after)
        self._before = after
        self.wall_s += wall
        self.reference_s += reference
        return reference
