"""Host-speed probe: scales measured times to a fixed reference speed.

On a shared host the speed of one core drifts by a quarter or more within
seconds, and whole runs land in slow or fast stretches. A background thread
therefore repeats a fixed piece of plain-Python work (no code of the program)
every ``EVERY_S`` and records its CPU time. A time measured over ``[a, b]`` is
then scaled by ``REFERENCE_S`` over the probe's mean cost around ``[a, b]``:
the result is the time the same work takes when the probe runs at its
reference speed. The probe costs the measured thread 1 to 2 % of a pass,
the same on every commit.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction

EVERY_S = 0.02
WINDOW = 10  # samples a scale factor averages over at least: about 0.2 s
# The probe's cost on an uncontended core of the 2-vCPU host the bounds in
# BENCHMARK.json were set on; it only fixes the unit.
REFERENCE_S = 170e-6


def reference_work() -> int:
    """A fixed mix of what the game spends its time on: string keys, dict and
    frozenset construction, sorting tuples, Fraction arithmetic."""
    table = {}
    total = Fraction(0)
    for i in range(60):
        table[f"v{i}"] = frozenset((i, i >> 1, i >> 2))
        total += Fraction(i % 7, 12)
    ordered = sorted(table.items(), key=lambda kv: (len(kv[1]), kv[0]))
    return len(ordered) + int(total)


class SpeedProbe:
    """Samples the probe's cost from a daemon thread while in a ``with`` block."""

    def __init__(self) -> None:
        self.ends = []  # perf_counter() when each sample finished
        self.costs = []  # its CPU seconds
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self) -> None:
        c = time.thread_time()
        reference_work()
        self.costs.append(time.thread_time() - c)
        self.ends.append(time.perf_counter())

    def _run(self) -> None:
        while not self._stop.wait(EVERY_S):
            self._sample()

    def __enter__(self) -> "SpeedProbe":
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()

    def scale(self, a: float, b: float) -> float:
        """Factor that turns a time measured over [a, b] into reference time:
        the samples inside the interval and the nearest one on each side,
        widened to at least ``WINDOW`` samples."""
        i = max(0, bisect_left(self.ends, a) - 1)
        j = bisect_right(self.ends, b) + 1
        while j - i < WINDOW and (i > 0 or j < len(self.ends)):
            i, j = max(0, i - 1), j + 1
        around = self.costs[i:j]
        return REFERENCE_S * len(around) / sum(around)
