"""Graceful degradation: flush-health state machine and read-path quarantine.

Two independent degradation mechanisms live here:

:class:`FlushHealth`
    The FlushCoalescer's circuit breaker.  Group-commit batching trades
    latency for fewer fsyncs — a trade that only pays while the log
    device is honest and healthy.  After ``degrade_after`` *consecutive*
    flush failures (raised faults or detected lying fsyncs) the machine
    drops to ``degraded``: the coalescer stops batching and every commit
    flushes synchronously, shrinking the window a bad device can hold
    acknowledged-but-volatile commits.  After ``repromote_after``
    consecutive healthy flushes it re-promotes to ``batching``.  Every
    outcome and transition is recorded so the chaos oracle can replay
    the trace independently.

:class:`QuarantineRegistry`
    The escalation path from the checksum torn-page quarantine (recovery
    resets a damaged page and remembers it) to the read path: an object
    registered here poisons any transaction that touches it — the
    storage manager raises
    :class:`~repro.common.errors.QuarantinedObjectError` and the
    transaction manager aborts the toucher rather than let it propagate
    garbage.
"""

from __future__ import annotations

from repro.common.errors import QuarantinedObjectError

__all__ = ["FlushHealth", "QuarantineRegistry", "BATCHING", "DEGRADED"]

BATCHING = "batching"
DEGRADED = "degraded"


class FlushHealth:
    """Consecutive-failure circuit breaker for group-commit batching."""

    def __init__(self, degrade_after=3, repromote_after=8):
        self.degrade_after = degrade_after
        self.repromote_after = repromote_after
        self.state = BATCHING
        self.consecutive_failures = 0
        self.consecutive_successes = 0
        self.outcomes = []  # ("ok"|"fail", detail) per observed flush
        self.transitions = []  # {"from", "to", "event", "at"} per flip

    @property
    def degraded(self):
        return self.state == DEGRADED

    def note_failure(self, detail=""):
        """One flush failed (raised, or the device lied about durability)."""
        self.outcomes.append(("fail", detail))
        self.consecutive_failures += 1
        self.consecutive_successes = 0
        if self.state == BATCHING and self.consecutive_failures >= self.degrade_after:
            self._transition(DEGRADED, detail or "consecutive flush failures")
        return self.state

    def note_success(self, detail=""):
        """One flush verified healthy."""
        self.outcomes.append(("ok", detail))
        self.consecutive_successes += 1
        self.consecutive_failures = 0
        if self.state == DEGRADED and self.consecutive_successes >= self.repromote_after:
            self._transition(BATCHING, detail or "healthy window complete")
        return self.state

    def _transition(self, target, event):
        self.transitions.append(
            {
                "from": self.state,
                "to": target,
                "event": event,
                "at": len(self.outcomes),
            }
        )
        self.state = target
        self.consecutive_failures = 0
        self.consecutive_successes = 0


class QuarantineRegistry:
    """Objects too damaged to serve, and the transactions they poisoned."""

    def __init__(self):
        self.objects = {}  # oid -> reason
        self.poisoned = {}  # tid -> set of oids it touched while quarantined
        self.damaged_pages = []  # page ids the torn-page quarantine reset

    def note_damaged_page(self, page_id):
        """Record a page the torn-page quarantine reset during rebuild.

        The page reset happens before the page's objects are readable, so
        the oid mapping is lost — triage registers specific oids via
        :meth:`quarantine_object` once it knows which objects redo could
        not heal.
        """
        if page_id not in self.damaged_pages:
            self.damaged_pages.append(page_id)

    def quarantine_object(self, oid, reason="damaged page"):
        """Mark ``oid`` unservable; reads/writes now poison the toucher."""
        self.objects.setdefault(oid, reason)

    def lift(self, oid):
        """Remove ``oid`` from quarantine (repaired / restored)."""
        self.objects.pop(oid, None)

    def is_quarantined(self, oid):
        return oid in self.objects

    def check(self, tid, oid, op="read"):
        """Raise (and poison ``tid``) if ``oid`` is quarantined."""
        if oid in self.objects:
            self.poison(tid, oid)
            raise QuarantinedObjectError(oid, tid=tid, op=op)

    def poison(self, tid, oid):
        """Record that ``tid`` touched quarantined ``oid``."""
        self.poisoned.setdefault(tid, set()).add(oid)

    def is_poisoned(self, tid):
        return tid in self.poisoned
