"""Timing in seconds at a fixed reference speed.

On a shared machine the interpreter's speed drifts: on the 2-core virtual
machine this benchmark was built on, it switched every few seconds between
states about 1.6x apart, and the raw time of one pass moved by 25-30%
between runs of the same code.  So every timing is rescaled to a fixed
speed: a short pure-Python reference loop, unrelated to constakit, is timed
at least every ``PERIOD`` seconds, and the work between two such samples is
scaled by ``REF_S`` over their mean.  A reported second is then a second at
the speed where the reference loop takes ``REF_S``; that is close to the
machine's fast state (Python 3.11 on x86-64).  Raw times are kept in the
run record.
"""

from __future__ import annotations

from time import perf_counter

#: Reference loop time, in seconds, that defines the reported speed.
REF_S = 0.006
#: Longest stretch of work, in seconds, between two reference samples.
PERIOD = 0.25


def reference() -> int:
    """Fixed dict, tuple and int work, like the interpreter work constakit does."""
    table = dict.fromkeys(range(256), 0)
    steps = (1, 2, 3, 4)
    total = 0
    for i in range(40000):
        k = i & 255
        table[k] = table[k] + i % 7
        total += steps[i & 3] * k
    return total


def speed_scale() -> float:
    """REF_S over the reference loop's time right now."""
    start = perf_counter()
    reference()
    return REF_S / (perf_counter() - start)


class Meter:
    """Scaled elapsed time and item times, sampled against the reference loop.

    Work is cut into segments at each reference sample; a segment's raw time
    and the items that ended in it are scaled by the mean of the samples at
    its two ends.  Sample time itself is not counted.
    """

    def __init__(self):
        self.elapsed = 0.0
        self.items: list[float] = []
        self._pending: list[float] = []
        self._scale = speed_scale()
        self._since = perf_counter()

    def sample(self) -> None:
        """Close the current segment with a fresh reference sample."""
        raw = perf_counter() - self._since
        scale = speed_scale()
        mean = (self._scale + scale) / 2
        self.elapsed += raw * mean
        self.items.extend(t * mean for t in self._pending)
        self._pending.clear()
        self._scale = scale
        self._since = perf_counter()

    def item(self, raw_seconds: float) -> None:
        """Record one item's raw time; sample if the segment is long enough."""
        self._pending.append(raw_seconds)
        if perf_counter() - self._since >= PERIOD:
            self.sample()
