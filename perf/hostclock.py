"""A clock that runs at the speed the host is running at.

The sandbox's cores change speed under the benchmark: for seconds or
minutes at a time everything on a core runs 1.2–1.8× slower (README,
*Steadiness*), so a wall-clock figure says as much about the moment it
was taken as about the program.  The benchmark therefore carries its
own yardstick: a **probe**, a fixed pure-Python loop timed every few
milliseconds between units of work.  Over the interval between two
probes the host's slowdown is taken as the mean of the two probe times
over ``REFERENCE_S`` — what the probe takes on a quiet core of the
reference sandbox — and the interval's wall time divided by that
slowdown is what it counts for on this clock.  Probes themselves take
no time on it.

Measured on ``atomic_seq`` with a probe after every four units, over a
minute in which the core ran 1.0–1.8× slow: where the probes read 1.2×
the work between them ran 1.23× slow, at 1.4× 1.44×, at 1.6× 1.60×, at
1.8× 1.74×.  A figure read from this clock is the time the work would
take on the quiet reference core; on that core the two clocks agree.
"""

from __future__ import annotations

import signal
from bisect import bisect_right
from time import perf_counter

PROBE_ITERATIONS = 2500
REFERENCE_S = 262e-6  # the probe on a quiet core of the reference sandbox
# The probe is arithmetic on a 1,024-entry table; the engine touches more
# memory and loses more when the core is contended: when the probe runs
# ``x`` times slow, the work beside it is taken to run ``x ** SENSITIVITY``
# times slow.  Over rounds taken while the host ran 1.03-2.7x slow, the
# slope of the log of the loop's wall time against the log of the mean
# probe time was 1.22, 1.38, 1.11, 1.04, 0.99 and 1.46 on the six
# workloads (+-0.04-0.10 each) one hour and 1.35, -, 1.33, 1.16, -, 1.09
# the hour before: it moves with whatever the neighbours are doing, so
# one middle value serves all.
SENSITIVITY = 1.2
EVERY_S = 2e-3  # wall time of work between two probes, at least


class HostClock:
    """Probes taken during one round, and wall instants read against them."""

    every_s = EVERY_S  # the client loops probe when this much has passed

    def __init__(self):
        self.probes = []  # (began, ended) wall instants, in order
        self._readings = None

    def probe(self):
        """Time the fixed loop once; returns the instant it ended."""
        began = perf_counter()
        total = 0
        table = {}
        for i in range(PROBE_ITERATIONS):
            table[i & 1023] = total
            total += i * i % 7
        ended = perf_counter()
        self.probes.append((began, ended))
        self._readings = None
        return ended

    def timed(self, call):
        """``(call(), its duration on this clock)``.

        The call is opaque (a build, a ``recover()``), so while it runs
        an interval timer takes the probes: over 40 rounds the 0.35 s
        recovery of ``extended_mix`` read 14% apart (standard deviation
        over mean) with one probe on either side, 7.5% with these.
        Main thread only, like every signal handler.
        """
        inside = False

        def on_timer(_signal, _frame):
            nonlocal inside
            if not inside:  # a probe slower than the timer is not re-entered
                inside = True
                self.probe()
                inside = False

        began = self.probe()
        previous = signal.signal(signal.SIGALRM, on_timer)
        timer = signal.setitimer(signal.ITIMER_REAL, self.every_s, self.every_s)
        try:
            result = call()
        finally:
            signal.setitimer(signal.ITIMER_REAL, *timer)  # none, normally
            signal.signal(signal.SIGALRM, previous)
        ended = perf_counter()
        self.probe()
        return result, self.reading(ended) - self.reading(began)

    def _build(self):
        """Clock reading at the end of each probe: piecewise linear in
        between, flat across the probes."""
        readings = [0.0]
        for (a0, b0), (a1, b1) in zip(self.probes, self.probes[1:]):
            probed = ((b0 - a0) + (b1 - a1)) / (2 * REFERENCE_S)
            slowdown = probed ** SENSITIVITY
            readings.append(readings[-1] + (a1 - b0) / slowdown)
        self._ends = [ended for _began, ended in self.probes]
        self._readings = readings

    def reading(self, instant):
        """What this clock showed at wall ``instant``, which must lie
        between the first probe and the last."""
        if self._readings is None:
            self._build()
        k = bisect_right(self._ends, instant) - 1
        if not 0 <= k < len(self.probes) - 1:
            raise ValueError("instant outside the probed span")
        began_next = self.probes[k + 1][0]
        ended = self._ends[k]
        span = began_next - ended
        share = min(1.0, (instant - ended) / span) if span > 0 else 0.0
        return self._readings[k] + share * (self._readings[k + 1] - self._readings[k])

    def slowdown(self, began, ended):
        """Mean probe time over ``REFERENCE_S``, of the probes taken
        between two wall instants: how slow the host ran meanwhile."""
        taken = [b - a for a, b in self.probes if began <= a and b <= ended]
        return sum(taken) / len(taken) / REFERENCE_S if taken else 1.0


class WallClock(HostClock):
    """The same interface with no probes: readings are wall instants.
    Traced rounds use it — under ``cProfile`` the probe measures the
    profiler, not the host."""

    every_s = float("inf")

    def probe(self):
        return perf_counter()

    def timed(self, call):
        began = perf_counter()
        result = call()
        return result, perf_counter() - began

    def reading(self, instant):
        return instant
