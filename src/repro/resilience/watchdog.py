"""The deterministic-clock watchdog: reaps expired and orphaned transactions.

The watchdog is the enforcement half of the deadline/lease story (the
bookkeeping half is :class:`~repro.resilience.deadlines.DeadlineTable`).
It runs on the same :class:`~repro.common.clock.LogicalClock` as
everything else, so chaos runs reproduce watchdog decisions exactly:

* :meth:`on_round` — the cooperative runtime calls this once per
  scheduler round; it ticks the clock and scans every
  ``scan_interval`` ticks.
* :meth:`on_stall` — called when the scheduler can make no progress.
  Instead of raising :class:`SchedulerStalledError` immediately, the
  runtime gives the watchdog one shot at *time travel*: jump the logical
  clock to the earliest armed expiry and scan.  If that reaps someone,
  the abort delivery un-wedges the schedule; if nothing is armed the
  genuine stall diagnostics still surface.
* :meth:`scan` — the actual reaping pass, callable directly (the
  threaded runtime's wall-clock watchdog loop does).

Each reap records **containment accounting**: the victim's abort
closure previewed from the dependency graph (group-commit members plus
AD/BCD dependents, transitively) *before* the abort runs, so operators
can see how far each watchdog abort cascaded.  In the same step the
victim's closure is pruned from the waits-for graph snapshot — a
transaction the watchdog aborts while parked in the commit-wait scan
must not linger as a phantom node for the deadlock detector.
"""

from __future__ import annotations

from repro.common.errors import DeadlineExceeded, LeaseExpired

__all__ = ["Watchdog", "ReapRecord"]


class ReapRecord:
    """Containment accounting for one watchdog abort."""

    __slots__ = ("tid", "kind", "reason", "closure", "cascaded", "tick")

    def __init__(self, tid, kind, reason, closure, tick):
        self.tid = tid
        self.kind = kind  # "deadline" | "lease" | "orphan"
        self.reason = reason
        self.closure = sorted(closure)
        self.cascaded = len(closure) - 1
        self.tick = tick

    def __repr__(self):
        return (
            f"ReapRecord({self.tid!r}, {self.kind}, cascaded={self.cascaded},"
            f" tick={self.tick})"
        )


class Watchdog:
    """Scans the :class:`DeadlineTable` and aborts what has lapsed."""

    def __init__(self, manager, table, detector=None, scan_interval=16):
        self.manager = manager
        self.table = table
        self.detector = detector
        self.scan_interval = scan_interval
        self.enabled = True
        self.reaped = []  # every ReapRecord, in reap order
        self.last_graph = None  # waits-for snapshot of the last scan
        self._last_scan = manager.clock.now()
        self.stats = {
            "scans": 0,
            "deadline_aborts": 0,
            "lease_aborts": 0,
            "orphan_aborts": 0,
            "cascaded_aborts": 0,
            "stall_rescues": 0,
        }

    # -- runtime hooks ----------------------------------------------------

    def on_round(self):
        """Scheduler-round hook: tick the clock, scan when the interval
        has elapsed.  Returns the tids reaped by this call.

        When the interval elapses but nothing armed is ripe yet, the
        hook skips the full scan (and its waits-for snapshot) — reaping
        can only happen at or after :meth:`DeadlineTable.next_expiry`,
        so the skip is behaviour-preserving and keeps an idle watchdog
        off the scheduler's hot path.
        """
        now = self.manager.clock.tick()
        if now - self._last_scan < self.scan_interval:
            return []
        target = self.table.next_expiry() if self.enabled else None
        if target is None or now < target:
            self._last_scan = now
            return []
        return self.scan(now=now)

    def on_stall(self):
        """Stall hook: deterministic time travel to the next expiry.

        Returns True when the jump-and-scan reaped at least one
        transaction (the schedule may now make progress); False when
        nothing was armed or nothing lapsed — the caller should raise
        its stall diagnostics as before.
        """
        if not self.enabled:
            return False
        target = self.table.next_expiry()
        if target is None:
            return False
        self.manager.clock.advance_to(target)
        reaped = self.scan()
        if reaped:
            self.stats["stall_rescues"] += 1
            return True
        return False

    # -- the scan ---------------------------------------------------------

    def scan(self, now=None):
        """One reaping pass; returns the tids aborted by this scan."""
        if not self.enabled:
            return []
        now = self.manager.clock.now() if now is None else now
        self._last_scan = now
        self.stats["scans"] += 1
        graph = self._waits_for_snapshot()
        self.last_graph = graph

        victims = []  # (tid, kind, reason), deterministic order
        seen = set()
        for error in self.table.expired(now):
            if error.tid in seen:
                continue
            seen.add(error.tid)
            kind = "deadline" if isinstance(error, DeadlineExceeded) else "lease"
            victims.append((error.tid, kind, str(error)))

        # Orphan pass: wards whose guardian is being reaped in this very
        # scan, and who hold no live lease of their own.  (Clean guardian
        # termination released its wards via the event hook, so a ward
        # seen here really was left behind.)
        reaped_guardians = set(seen)
        for ward, guardian in sorted(self.table.guardians.items()):
            if ward in seen or guardian not in reaped_guardians:
                continue
            if self.table.lease_live(ward, now):
                continue
            seen.add(ward)
            victims.append(
                (ward, "orphan", f"orphaned: guardian {guardian!r} reaped")
            )

        reaped = []
        for tid, kind, reason in victims:
            td = self.manager.table.maybe_get(tid)
            if td is None or td.status.is_terminated:
                self.table.forget(tid)
                continue
            closure = self.manager.dependencies.abort_closure_preview(tid)
            if not self.manager.abort(tid, reason=reason):
                self.table.forget(tid)
                continue
            record = ReapRecord(tid, kind, reason, closure, tick=now)
            self.reaped.append(record)
            self.stats[kind + "_aborts"] += 1
            self.stats["cascaded_aborts"] += record.cascaded
            # Same-step waits-for pruning: the whole abort closure left
            # the commit-wait scan; the detector must not see it again.
            if graph is not None:
                for member in closure:
                    graph.remove_node(member)
            self.table.forget(tid)
            reaped.append(tid)
        return reaped

    def abort_set(self):
        """Every tid the watchdog has ever reaped, in reap order."""
        return [record.tid for record in self.reaped]

    def _waits_for_snapshot(self):
        if self.detector is None:
            return None
        return self.detector.build_graph()
