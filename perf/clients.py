"""Closed-loop clients: each sends its next unit only when the last ended.

ASSET is a library whose callers wait for ``commit`` to return, so the
load is a closed loop with a stated client count, all of it driven from
this one thread.  A unit's latency runs from its first submission to
its final outcome, retries and backoff included.
"""

from __future__ import annotations

from time import perf_counter

RETRY_BUDGET = 20


class Recorder:
    """Per-unit outcomes of one timed loop, indexed by submission order.

    ``marks`` holds the clock at every completion, in completion order:
    the loop cut into as many segments of identical work as it has
    units, which is what lets rounds be compared piece by piece (see
    ``perf.report``).  All instants are wall instants; ``clock`` is
    probed between units so that they can be read against the host's
    speed afterwards (``perf.hostclock``).
    """

    def __init__(self, tracer, units, clock):
        self.tracer = tracer
        self.clock = clock
        self.units = [None] * units  # (kind, start, end, retries)
        self.failed = []  # indexes of units that missed their outcome
        self.marks = []

    def done(self, index, kind, start, end, retries, ok):
        self.units[index] = (kind, start, end, retries)
        if not ok:
            self.failed.append(index)
        self.marks.append(end)


def run_sequential(inputs, do_unit, recorder):
    """One client: ``do_unit(item)`` returns ``(kind, reached_outcome)``."""
    tracer = recorder.tracer
    done = recorder.done
    probe = recorder.clock.probe
    every_s = recorder.clock.every_s
    probed = perf_counter()
    for index, item in enumerate(inputs):
        tracer.unit = index
        start = perf_counter()
        kind, ok = do_unit(item)
        end = perf_counter()
        done(index, kind, start, end, 0, ok)
        if end - probed >= every_s:
            probed = probe()


def backoff(attempt):
    """Driver iterations a client sits out before resubmitting a victim."""
    return 2 ** min(attempt, 6)


def run_pool(runtime, manager, bodies, clients, recorder):
    """``clients`` concurrent clients over one cooperative runtime, one
    transaction body per unit.

    Client ``c`` owns units ``c, c + clients, c + 2 * clients, ...`` and
    sends the next one only when the previous has its final outcome.
    Each driver iteration visits every client once — submit the next
    unit, resubmit after backoff, or ask ``try_commit`` for the fate of
    the unit in flight — then lets the scheduler advance with one
    ``poll``.  A transaction that aborted (a deadlock victim) is
    resubmitted after a deterministic backoff of ``backoff(attempt)``
    iterations, at most ``RETRY_BUDGET`` times; without the backoff the
    youngest-victim rule starves the retry (see README, Findings).
    """
    tracer = recorder.tracer
    spawn = runtime.spawn
    try_commit = manager.try_commit
    poll = runtime.poll
    queues = [iter(range(c, len(bodies), clients)) for c in range(clients)]
    # Per client: [index, body, tid or None while backing off, start,
    # attempt, iteration to resubmit at]
    slots = [None] * clients
    remaining = len(bodies)
    iteration = 0
    probe = recorder.clock.probe
    every_s = recorder.clock.every_s
    probed = perf_counter()
    while remaining:
        iteration += 1
        if perf_counter() - probed >= every_s:
            probed = probe()
        for client in range(clients):
            slot = slots[client]
            if slot is None:
                index = next(queues[client], None)
                if index is None:
                    continue
                tracer.unit = index
                body = bodies[index]
                start = perf_counter()
                slots[client] = [index, body, spawn(body), start, 0, 0]
                continue
            tracer.unit = slot[0]
            if slot[2] is None:
                if iteration >= slot[5]:
                    slot[2] = spawn(slot[1])
                continue
            outcome = try_commit(slot[2])
            if not outcome.is_final:
                continue
            if outcome:
                recorder.done(
                    slot[0], "atomic", slot[3], perf_counter(), slot[4], True
                )
            elif slot[4] >= RETRY_BUDGET:
                recorder.done(
                    slot[0], "atomic", slot[3], perf_counter(), slot[4], False
                )
            else:
                slot[4] += 1
                slot[5] = iteration + backoff(slot[4])
                slot[2] = None
                continue
            slots[client] = None
            remaining -= 1
        tracer.unit = -1
        poll()
