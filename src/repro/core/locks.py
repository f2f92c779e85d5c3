"""The lock manager: section 4.2's ``read-lock`` / ``write-lock`` algorithm.

Locking is operation-based (the conflict table defaults to read/write but
extends to commuting methods, section 5).  The algorithm is the paper's,
step for step:

1. Scan the granted lock requests on the object's OD.

   a. A granted lock of the requester that is not suspended and covers the
      request → success.
   b. A conflicting granted lock held by ``t_j``: scan the object's
      permits.  If ``t_j`` permits the requester, *suspend* that granted
      lock; with no permission the requester blocks (the core returns a
      blocked outcome and the runtimes retry from step 1).

2. The requester can now lock: create its LRD (or extend / un-suspend an
   existing one), and apply the suspensions decided in 1b.

Suspension is what allows controlled conflicting access: a suspended lock
stops excluding others but continues to represent the holder's
responsibility for its past operations.  The system-wide invariant — two
granted, *unsuspended* lock requests never conflict — is enforced here and
verified by property tests.
"""

from __future__ import annotations

from repro.common.events import EventBus, EventKind
from repro.core.descriptors import (
    LockRequestDescriptor,
    LockRequestStatus,
    ObjectDescriptor,
)
from repro.core.outcomes import GRANTED, LockOutcome
from repro.core.semantics import ConflictTable


class ObjectRegistry:
    """The live object descriptors, keyed by object id.

    ODs are created on first lock/permit and freed when idle, mirroring
    the paper's cache-attached descriptors.
    """

    def __init__(self):
        self._descriptors = {}

    def get_or_create(self, oid):
        """The OD for ``oid``, creating it if this is the first interest."""
        od = self._descriptors.get(oid)
        if od is None:
            od = ObjectDescriptor(oid)
            self._descriptors[oid] = od
        return od

    def maybe_get(self, oid):
        """The OD for ``oid`` or ``None``."""
        return self._descriptors.get(oid)

    def release_if_idle(self, oid):
        """Free the OD when nothing references the object any more."""
        od = self._descriptors.get(oid)
        if od is not None and od.is_idle():
            del self._descriptors[oid]

    def all_descriptors(self):
        """Snapshot of live ODs (tests and deadlock analysis)."""
        return list(self._descriptors.values())

    def __len__(self):
        return len(self._descriptors)


class LockManager:
    """Grants, blocks, suspends, delegates, and releases locks."""

    def __init__(self, registry, permits, conflicts=None, events=None):
        self.registry = registry
        self.permits = permits
        self.conflicts = conflicts if conflicts is not None else ConflictTable()
        # A bus nobody watches when none is given: every emit site tests
        # its kind against ``watched`` and nothing else.
        self._events = events if events is not None else EventBus()
        self._pending_by_tid = {}
        self.stats = {
            "grants": 0, "blocks": 0, "suspensions": 0, "fast_grants": 0,
        }

    # -- acquisition -------------------------------------------------------------

    def acquire(self, td, oid, operation):
        """Request an ``operation`` lock on ``oid`` for ``td``.

        Returns a :class:`LockOutcome`; on a blocked outcome a pending LRD
        is registered (for the deadlock detector) and the caller retries
        later, re-entering at step 1 as the paper specifies.
        """
        od = self.registry.get_or_create(oid)
        own = od.granted_for(td.tid)
        if (
            own is not None
            and not own.suspended
            and self.conflicts.covers(own.operations, operation)
        ):
            return GRANTED  # step 1a: held already — nothing to grant
        if od.active_besides(own) == 0:
            # Contention fast path: every granted lock is either the
            # requester's own or suspended, so nothing can conflict —
            # skip conflict and permit evaluation entirely.
            self.stats["fast_grants"] += 1
            self._grant(td, od, operation, own)
            return GRANTED
        to_suspend = []
        blockers = []
        for gl in od.granted:
            if gl.td is td:
                continue  # own locks never conflict with oneself
            if gl.suspended:
                continue  # suspended locks stop excluding others
            if not self.conflicts.conflicts_any(gl.operations, operation):
                continue
            if self.permits.allows(oid, gl.tid, td.tid, operation):
                to_suspend.append(gl)
            else:
                blockers.append(gl.tid)

        if blockers:
            self._note_pending(td, od, operation)
            self.stats["blocks"] += 1
            if EventKind.LOCK_BLOCKED in self._events.watched:
                self._events.emit(
                    EventKind.LOCK_BLOCKED,
                    td.tid,
                    oid=oid,
                    operation=operation,
                    blockers=tuple(blockers),
                )
            return LockOutcome(granted=False, blockers=tuple(blockers))

        for gl in to_suspend:
            od.set_suspended(gl, True)
            self.stats["suspensions"] += 1
            if EventKind.LOCK_SUSPENDED in self._events.watched:
                self._events.emit(
                    EventKind.LOCK_SUSPENDED,
                    gl.tid,
                    oid=oid,
                    for_tid=td.tid,
                    operation=operation,
                )
        self._grant(td, od, operation, own)
        return GRANTED

    def holds(self, td, oid, operation):
        """Whether ``td`` already holds an unsuspended lock covering ``operation``.

        Answered from the OD's tid index, not by walking ``td.locks``:
        the walk made a transaction quadratic in its write set.
        """
        od = self.registry.maybe_get(oid)
        if od is None:
            return False
        lrd = od.granted_for(td.tid)
        return (
            lrd is not None
            and not lrd.suspended
            and self.conflicts.covers(lrd.operations, operation)
        )

    def _grant(self, td, od, operation, lrd=None):
        """Grant ``operation`` on ``od``: extend ``lrd``, the granted
        request ``td`` has there, or make its first (``None``)."""
        if lrd is None:
            lrd = LockRequestDescriptor(
                td=td, od=od, operations={operation},
                status=LockRequestStatus.GRANTED,
            )
            od.attach_granted(lrd)
            td.locks.append(lrd)
        else:
            lrd.operations.add(operation)
            # Re-activating a suspended lock resurrects its WHOLE
            # operation set, not just the operation being granted now.
            # While any active foreign grant still conflicts with that
            # set, the lock must stay suspended — otherwise a holder
            # whose write lock was suspended by a permitted reader could
            # revive the write exclusion by merely re-requesting a read
            # (found by the lock-invariant property test).
            if lrd.suspended and not self._suspension_still_needed(td, od, lrd):
                od.set_suspended(lrd, False)
            lrd.status = LockRequestStatus.GRANTED
        if td.tid in self._pending_by_tid:  # else nothing is pending
            self._clear_pending(td, od)
        self.stats["grants"] += 1
        watched = self._events.watched
        if EventKind.WRITE_LOCK in watched or EventKind.READ_LOCK in watched:
            kind = (
                EventKind.WRITE_LOCK
                if self.conflicts.conflicts(operation, "read")
                else EventKind.READ_LOCK
            )
            self._events.emit(kind, td.tid, oid=od.oid, operation=operation)
        return lrd

    def _suspension_still_needed(self, td, od, lrd):
        """Whether re-activating ``lrd`` would leave two conflicting
        active grants on ``od``."""
        for gl in od.granted:
            if gl.td is td or gl.suspended:
                continue
            for operation in lrd.operations:
                if self.conflicts.conflicts_any(gl.operations, operation):
                    return True
        return False

    # -- pending bookkeeping --------------------------------------------------------

    def _note_pending(self, td, od, operation):
        pending = od.pending_for(td.tid)
        if pending is None:
            status = (
                LockRequestStatus.UPGRADING
                if od.granted_for(td.tid) is not None
                else LockRequestStatus.PENDING
            )
            pending = LockRequestDescriptor(
                td=td, od=od, operations=set(), status=status,
            )
            od.attach_pending(pending)
            self._pending_by_tid.setdefault(td.tid, []).append(pending)
        pending.requested.add(operation)

    def _clear_pending(self, td, od):
        pending = od.pending_for(td.tid)
        if pending is not None:
            od.detach_pending(pending)
            mine = self._pending_by_tid.get(td.tid)
            if mine is not None:
                if pending in mine:
                    mine.remove(pending)
                if not mine:
                    # Emptied per-tid lists must go, or the dict grows
                    # with every transaction that ever blocked.
                    del self._pending_by_tid[td.tid]

    def pending_requests(self, tid=None):
        """Pending LRDs, optionally for one transaction (deadlock input)."""
        if tid is not None:
            return list(self._pending_by_tid.get(tid, ()))
        # Snapshot the per-tid lists first: under the parallel sharded
        # runtime, object ops register/clear pendings outside the manager
        # mutex, so iterating the live dict here (the detector's path)
        # could see it resize mid-iteration.
        return [
            lrd
            for lrds in list(self._pending_by_tid.values())
            for lrd in list(lrds)
        ]

    def blockers_of(self, pending):
        """Recompute who currently blocks a pending request."""
        if pending.od.foreign_active_count(pending.tid) == 0:
            return []  # nothing unsuspended and foreign: nothing blocks
        blockers = []
        for gl in pending.od.granted:
            if gl.td is pending.td or gl.suspended:
                continue
            for operation in pending.requested:
                if self.conflicts.conflicts_any(
                    gl.operations, operation
                ) and not self.permits.allows(
                    pending.oid, gl.tid, pending.tid, operation
                ):
                    blockers.append(gl.tid)
                    break
        return blockers

    # -- delegation (section 4.2, delegate step a) -------------------------------------

    def delegate(self, td_from, td_to, oids=None):
        """Move granted LRDs from ``td_from`` to ``td_to``.

        ``oids`` of ``None`` moves everything.  When the delegatee already
        holds a lock on the same object, the requests merge (operations
        union; unsuspended wins).  Returns the object ids affected.
        """
        moved = []
        for lrd in list(td_from.locks):
            if oids is not None and lrd.oid not in oids:
                continue
            td_from.locks.remove(lrd)
            existing = lrd.od.granted_for(td_to.tid)
            if existing is not None and existing is not lrd:
                existing.operations |= lrd.operations
                lrd.od.detach_granted(lrd)
                # An unsuspended incoming lock normally re-activates the
                # merged request — but the merge also widens its
                # operation set, and re-activation must not put the
                # widened set in conflict with an active foreign grant
                # (same hazard as re-granting onto a suspended lock).
                suspended = existing.suspended and lrd.suspended
                if not suspended and self._suspension_still_needed(
                    td_to, existing.od, existing
                ):
                    suspended = True
                existing.od.set_suspended(existing, suspended)
            else:
                lrd.od.rekey_granted(lrd, td_to)
                td_to.locks.append(lrd)
            moved.append(lrd.oid)
        return moved

    # -- release --------------------------------------------------------------------

    def release_all(self, td):
        """Release every lock and pending request of ``td`` (termination)."""
        for lrd in list(td.locks):
            lrd.od.detach_granted(lrd)
            self.registry.release_if_idle(lrd.oid)
        td.locks.clear()
        for pending in self._pending_by_tid.pop(td.tid, []):
            pending.od.detach_pending(pending)
            self.registry.release_if_idle(pending.oid)

    # -- invariants (tests) ------------------------------------------------------------

    def check_invariants(self):
        """Assert the no-two-unsuspended-conflicting-locks invariant.

        Returns the list of violations (empty when healthy); tests assert
        emptiness, and the property suite calls this after every step.
        """
        violations = []
        for od in self.registry.all_descriptors():
            active = [gl for gl in od.granted if not gl.suspended]
            for i, first in enumerate(active):
                for second in active[i + 1 :]:
                    for op in second.operations:
                        if self.conflicts.conflicts_any(first.operations, op):
                            violations.append((od.oid, first.tid, second.tid))
                            break
        return violations
