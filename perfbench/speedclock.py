"""A clock in seconds at a fixed reference speed of the machine.

The benchmark was written on a virtual machine whose two cores are shared
with other tenants: the same pass of a workload took 5.5 s or 10.5 s a few
minutes apart, and a fixed loop ran up to 1.7 times slower from one second
to the next.  Medians and minima of raw wall time over the passes of a run
still spread 0.14 to 0.33 from run to run (quartile distance over median,
ten runs), more than the largest bound a metric may have (0.25).  So every
time the benchmark reports is read from this clock instead.

While a :class:`SpeedClock` is running, a ``SIGALRM`` handler times a fixed
calibration loop every ``period_s`` seconds (:data:`PERIOD_S` by default).
Between two samples the clock advances by the elapsed wall time times
``REFERENCE_CHUNK_S / last sample``: a stretch of time in which the loop ran
at its reference speed counts in full, a slower stretch counts less.  The
handler's own time is not counted.  On a quiet machine where the loop runs
at its reference speed the clock reads wall seconds.

The loop does what the program does most: ``Fraction`` arithmetic on
growing integers, tuple keys and dict updates.  Across 31 back-to-back
passes of ``catalog-o4`` the spread of the pass time was 0.25 in wall
seconds and 0.036 on this clock.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

PERIOD_S = 0.1
CHUNK_ITERATIONS = 300
# Time of one calibration loop on the machine the benchmark was written on
# (Intel Xeon, KVM, Python 3.11): the fastest fifth of 20,000 back-to-back
# loops took at most 0.684 ms.
REFERENCE_CHUNK_S = 0.00068


def calibration_loop() -> None:
    acc = Fraction(0)
    table = {}
    for i in range(1, CHUNK_ITERATIONS):
        acc += Fraction(i, i + 1)
        key = (i % 7, i % 11, i % 13)
        table[key] = table.get(key, 0) + i * i


class SpeedClock:
    """Reference seconds since the clock was entered; use as a context
    manager in the main thread.  ``samples`` keeps every loop time."""

    def __init__(self, period_s: float = PERIOD_S) -> None:
        self.period_s = period_s
        self.samples = []
        # (reference seconds, wall time they were reached, last loop time),
        # replaced as a whole so that now() never reads half an update
        self._state = (0.0, 0.0, REFERENCE_CHUNK_S)
        self._floor = 0.0
        self._previous_handler = None

    def _sample(self):
        t0 = time.perf_counter()
        calibration_loop()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        return t1, t1 - t0

    def _tick(self, _signum, _frame) -> None:
        now = time.perf_counter()
        reference, since, loop_s = self._state
        reference += (now - since) * REFERENCE_CHUNK_S / loop_s
        self._state = (reference, *self._sample())

    def now(self) -> float:
        reference, since, loop_s = self._state
        value = reference + ((time.perf_counter() - since)
                             * REFERENCE_CHUNK_S / loop_s)
        # a tick between reading the state and the wall clock can put this
        # reading up to one loop ahead of the next one; never go back
        if value < self._floor:
            return self._floor
        self._floor = value
        return value

    def __enter__(self) -> "SpeedClock":
        self._state = (0.0, *self._sample())
        self._previous_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)
