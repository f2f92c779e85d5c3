"""Deadline and lease bookkeeping for the resilience watchdog.

The :class:`DeadlineTable` is pure bookkeeping over the deterministic
:class:`~repro.common.clock.LogicalClock` tick space — it never aborts
anything itself; the :class:`~repro.resilience.watchdog.Watchdog` reads
it during scans and does the reaping.

Three kinds of entry:

* **deadline** — an absolute tick by which the transaction must have
  terminated.  Missing it is :class:`DeadlineExceeded`.
* **lease** — a heartbeat contract: the holder must call
  :meth:`heartbeat` at least every ``duration`` ticks.  A lapsed lease
  is the signature of a crashed or wedged participant and raises
  :class:`LeaseExpired` at scan time.
* **guardianship** — delegator → delegatee edges recorded from
  ``DELEGATE`` events.  A delegatee (*ward*) whose guardian is reaped by
  the watchdog in the same scan is orphaned and reaped too, unless the
  ward holds a live lease of its own.  A guardian that terminates
  *cleanly* (commit or explicit abort) releases its wards — completed
  delegation must not strand the delegatee.

When constructed with an :class:`~repro.common.events.EventBus` the
table subscribes and maintains guardianship and cleanup automatically;
without a bus, call :meth:`guard` / :meth:`forget` manually (the
watchdog also prunes terminated tids defensively during scans).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import DeadlineExceeded, LeaseExpired
from repro.common.events import EventKind

__all__ = ["DeadlineTable", "Lease"]


@dataclass
class Lease:
    """One heartbeat contract: renewed at ``last_beat``, good for ``duration``."""

    last_beat: int
    duration: int

    def expires_at(self):
        return self.last_beat + self.duration


def _tid_order(key):
    """A tid sorts by its number, a workflow wait token by its ``value``."""
    return key if isinstance(key, int) else key.value


class DeadlineTable:
    """Deadlines, leases, and delegation guardianship, keyed by tid."""

    def __init__(self, clock, events=None):
        self.clock = clock
        self.deadlines = {}  # tid -> absolute expiry tick
        self.leases = {}  # tid -> Lease
        self.guardians = {}  # ward tid -> guardian tid
        self._events = events
        if events is not None:
            # Narrow subscription: the table cares about three kinds, and
            # a kind-filtered subscriber keeps every other emit (the
            # read/write/lock hot path) on the no-listener fast path.
            events.subscribe(
                self._on_event,
                kinds=(
                    EventKind.DELEGATE,
                    EventKind.COMMITTED,
                    EventKind.ABORTED,
                ),
            )

    def close(self):
        """Detach from the event bus (idempotent)."""
        if self._events is not None:
            self._events.unsubscribe(self._on_event)
            self._events = None

    # -- registration -----------------------------------------------------

    def set_deadline(self, tid, at=None, budget=None):
        """Require ``tid`` to terminate by tick ``at`` (or now+``budget``)."""
        if at is None:
            if budget is None:
                raise ValueError("set_deadline needs at= or budget=")
            at = self.clock.now() + budget
        self.deadlines[tid] = at
        return at

    def grant_lease(self, tid, duration):
        """Start a heartbeat lease for ``tid``; the first beat is now."""
        lease = Lease(last_beat=self.clock.now(), duration=duration)
        self.leases[tid] = lease
        return lease

    def heartbeat(self, tid):
        """Renew ``tid``'s lease; returns False if it holds none."""
        lease = self.leases.get(tid)
        if lease is None:
            return False
        lease.last_beat = self.clock.now()
        return True

    def guard(self, ward, guardian):
        """Record that ``guardian`` is responsible for ``ward``."""
        self.guardians[ward] = guardian

    # -- queries ----------------------------------------------------------

    def deadline_of(self, tid):
        return self.deadlines.get(tid)

    def lease_of(self, tid):
        return self.leases.get(tid)

    def lease_live(self, tid, now=None):
        """True iff ``tid`` holds a lease that has not lapsed."""
        lease = self.leases.get(tid)
        if lease is None:
            return False
        now = self.clock.now() if now is None else now
        return now < lease.expires_at()

    def guardian_of(self, ward):
        return self.guardians.get(ward)

    def wards_of(self, guardian):
        """Wards guarded by ``guardian``, in tid order."""
        return sorted(w for w, g in self.guardians.items() if g == guardian)

    def expired(self, now=None):
        """Every expiry error as of ``now``, deterministically ordered.

        A tid whose deadline *and* lease have both lapsed yields two
        errors; the watchdog dedupes victims.
        """
        now = self.clock.now() if now is None else now
        errors = []
        for tid, at in sorted(self.deadlines.items(), key=lambda kv: _tid_order(kv[0])):
            if now >= at:
                errors.append(DeadlineExceeded(tid, at, now))
        for tid, lease in sorted(self.leases.items(), key=lambda kv: _tid_order(kv[0])):
            if now >= lease.expires_at():
                errors.append(LeaseExpired(tid, lease.last_beat, lease.duration, now))
        return errors

    def next_expiry(self):
        """The earliest armed expiry tick, or ``None`` when nothing is armed.

        This is the watchdog's time-travel target when the scheduler
        stalls: jumping the logical clock here makes the earliest
        deadline/lease fire without wall-clock waiting.
        """
        ticks = list(self.deadlines.values())
        ticks.extend(lease.expires_at() for lease in self.leases.values())
        return min(ticks) if ticks else None

    # -- cleanup ----------------------------------------------------------

    def forget(self, tid):
        """Drop every entry about ``tid`` (terminated or reaped)."""
        self.deadlines.pop(tid, None)
        self.leases.pop(tid, None)
        self.guardians.pop(tid, None)

    def release_guardian(self, guardian):
        """Clean termination of ``guardian``: its wards are on their own
        (and no longer orphan candidates)."""
        if not self.guardians:
            return
        for ward in [w for w, g in self.guardians.items() if g == guardian]:
            del self.guardians[ward]

    # -- event wiring -----------------------------------------------------

    def _on_event(self, event):
        kind = event.kind
        if kind is EventKind.DELEGATE:
            ward = event.detail.get("to")
            if ward is not None:
                self.guard(ward, event.tid)
        elif kind in (EventKind.COMMITTED, EventKind.ABORTED):
            self.forget(event.tid)
            self.release_guardian(event.tid)
