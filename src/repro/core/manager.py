"""The transaction manager: ASSET's primitive set (sections 2 and 4.2).

:class:`TransactionManager` is a *synchronous, non-blocking core*.  The
paper's primitives block and retry ("t_i blocks and retries later starting
at step 1"); here each primitive either completes or returns a would-block
outcome naming the transactions being waited on, and the runtimes
(:mod:`repro.runtime`) supply the blocking and the retrying.  This split
keeps the semantics runtime-independent: the deterministic cooperative
scheduler and the threaded runtime drive exactly the same code.

Concurrency note: EOS guards its shared control structures with latches;
the Python-appropriate equivalent is one reentrant mutex around the
manager's public methods (CPython's GIL would serialize most of them
anyway).  Object *data* accesses still take the per-frame S/X latches via
the storage manager, as section 4.2's read/write algorithms specify.
"""

from __future__ import annotations

import threading

from repro.common.clock import LogicalClock
from repro.common.errors import (
    InvalidStateError,
    QuarantinedObjectError,
    TransactionAborted,
)
from repro.common.events import EventBus, EventKind
from repro.common.ids import NULL_TID, IdGenerator, Tid
from repro.core.dependency import DependencyGraph, DependencyType
from repro.core.descriptors import TransactionDescriptor, TransactionTable
from repro.core.locks import LockManager, ObjectRegistry
from repro.core.outcomes import (
    GRANTED,
    CommitOutcome,
    CommitStatus,
    PrepareOutcome,
    PrepareStatus,
)
from repro.core.permits import PermitTable
from repro.core.semantics import READ, WRITE, ConflictTable
from repro.core.status import CODE_RUNS, TransactionStatus
from repro.storage.store import StorageManager


def _no_failpoint(name):
    """The default (disabled) failure hook."""


class TransactionManager:
    """The full ASSET primitive set over a storage manager."""

    def __init__(
        self,
        storage=None,
        conflicts=None,
        max_transactions=None,
        events=None,
        clock=None,
        group_commit=None,
        failpoint=None,
        admission=None,
    ):
        if storage is None:
            # ``group_commit`` batches commit-record flushes: the GC
            # dependency's grouped durability point, applied to fsync.
            storage = StorageManager(group_commit=group_commit)
        self.storage = storage
        # Failure hooks: a callable invoked at the named semantic points
        # of commit/abort ("commit.log", "commit.logged", "abort.undo",
        # "abort.undone").  The chaos harness plugs a fault injector in
        # here to crash *between* semantic steps of the section 4.2
        # algorithms, not only between storage I/O calls.
        self.failpoint = failpoint if failpoint is not None else _no_failpoint
        self.clock = clock if clock is not None else LogicalClock()
        self.events = events if events is not None else EventBus(self.clock)
        self.conflicts = conflicts if conflicts is not None else ConflictTable()
        self.max_transactions = max_transactions
        # Admission controller (repro.resilience): consulted before any
        # other ``initiate`` work; sheds with a typed Backpressure error.
        self.admission = admission
        # Observability hook (repro.obs): a MetricsRegistry/ScopedMetrics
        # installed by ObservabilityKit.attach_manager — which also binds
        # the per-primitive latency wrappers onto this instance — or None.
        # Detached, the primitives are the plain methods.
        self.metrics = None

        self.table = TransactionTable()
        self.registry = ObjectRegistry()
        self.permits = PermitTable(self.registry, events=self.events)
        self.lock_manager = LockManager(
            self.registry, self.permits, conflicts=self.conflicts,
            events=self.events,
        )
        self.dependencies = DependencyGraph()

        # Resume tid allocation above anything the (possibly pre-existing)
        # log has seen: a reused tid would entangle this incarnation's
        # undo/redo with a previous one's.
        self._tids = IdGenerator(
            Tid, start=self.storage.log.max_tid_value() + 1
        )
        self._mutex = threading.RLock()
        self._checkpointing = threading.Lock()
        self.stats = {
            "initiated": 0,
            "committed": 0,
            "aborted": 0,
            "cascaded_aborts": 0,
            "delegations": 0,
            "commit_blocks": 0,
        }

    # ------------------------------------------------------------------
    # basic primitives (section 2.1)
    # ------------------------------------------------------------------

    def initiate(self, function=None, args=(), initiator=NULL_TID):
        """Register a new transaction; returns its tid, or the null tid.

        The transaction does not start executing — ``begin`` does that.
        The null tid is returned when the configured transaction limit is
        exceeded, as section 4.2 specifies.
        """
        with self._mutex:
            if self.admission is not None:
                self.admission.admit(self)
            if self.max_transactions is not None:
                if len(self.table.live()) >= self.max_transactions:
                    return NULL_TID
            tid = self._tids.next()
            td = TransactionDescriptor(
                tid=tid, parent=initiator, function=function, args=tuple(args)
            )
            self.table.add(td)
            self.stats["initiated"] += 1
            if EventKind.INITIATE in self.events.watched:
                self.events.emit(EventKind.INITIATE, tid, parent=initiator)
            return tid

    def begin(self, *tids):
        """Start execution of one or more initiated transactions: ``True``
        only if every named one transitioned to running."""
        return self.try_begin(*tids)[0]

    def try_begin(self, *tids):
        """:meth:`begin`, answering ``(begun, blockers)`` under one hold of
        the mutex.  A refusal with blockers (an unresolved BCD/BAD) may
        succeed later; one without never will (a named transaction already
        began or terminated).  No dependee can terminate in between."""
        with self._mutex:
            blockers = self.begin_blockers(*tids)
            if blockers:
                return False, tuple(blockers)
            startable = []
            for tid in tids:
                td = self.table.get(tid)
                if td.status is not TransactionStatus.INITIATED:
                    return False, ()
                startable.append(td)
            for td in startable:
                td.set_status(TransactionStatus.RUNNING)
                if EventKind.BEGIN in self.events.watched:
                    self.events.emit(EventKind.BEGIN, td.tid)
            return True, ()

    def begin_blockers(self, *tids):
        """Transactions whose termination must precede the begin of
        ``tids``: empty when a refused ``begin`` will never succeed."""
        blockers = []
        for tid in tids:
            for edge in self.dependencies.outgoing(tid):
                if edge.dep_type is DependencyType.BCD:
                    awaited = TransactionStatus.COMMITTED
                elif edge.dep_type is DependencyType.BAD:
                    awaited = TransactionStatus.ABORTED
                else:
                    continue
                if self.table.get(edge.dependee).status is not awaited:
                    blockers.append(edge.dependee)
        return blockers

    def note_completed(self, tid):
        """Record that ``tid``'s code finished executing.

        Locks are retained and changes stay volatile — commitment is a
        separate, explicit act (section 2.1).
        """
        with self._mutex:
            td = self.table.get(tid)
            if td.status.is_abort_bound:
                return False
            td.set_status(TransactionStatus.COMPLETED)
            if EventKind.COMPLETE in self.events.watched:
                self.events.emit(EventKind.COMPLETE, tid)
            return True

    def wait_outcome(self, tid):
        """The paper's ``wait``: ``True`` once execution completed (or the
        transaction committed), ``False`` if it aborted, ``None`` while it
        is still executing (the runtime keeps waiting)."""
        with self._mutex:
            status = self.table.get(tid).status
            if status.is_abort_bound:
                return False
            return None if status in CODE_RUNS else True

    def parent_of(self, tid):
        """The initiating transaction of ``tid`` (null for top level)."""
        with self._mutex:
            return self.table.get(tid).parent

    def status_of(self, tid):
        """Current :class:`TransactionStatus` of ``tid``."""
        with self._mutex:
            return self.table.get(tid).status

    def has_aborted(self, tid):
        """Status query: has ``tid`` aborted (or is it bound to)?"""
        with self._mutex:
            return self.table.get(tid).status.is_abort_bound

    def has_committed(self, tid):
        """Status query: has ``tid`` committed?"""
        with self._mutex:
            return self.table.get(tid).status is TransactionStatus.COMMITTED

    def transactions(self):
        """Snapshot of all transaction descriptors."""
        with self._mutex:
            return list(self.table)

    def committing_transactions(self):
        """Tids currently mid-commit, in one pass over the live
        transactions (deadlock input; run on every idle scheduler round,
        so it must not walk the terminated)."""
        with self._mutex:
            return [
                td.tid
                for td in self.table.live()
                if td.status is TransactionStatus.COMMITTING
            ]

    # ------------------------------------------------------------------
    # object operations
    # ------------------------------------------------------------------

    def _active_td(self, tid):
        td = self.table.get(tid)
        status = td.status
        if status is TransactionStatus.RUNNING or (
            status is TransactionStatus.COMPLETED
        ):
            return td
        if status.is_abort_bound:
            raise TransactionAborted(tid, td.abort_reason)
        raise InvalidStateError(
            f"{tid!r} is {status.value}; cannot operate on objects"
        )

    def create_object(self, tid, value, name=""):
        """Create a persistent object owned (write-locked) by ``tid``."""
        with self._mutex:
            td = self._active_td(tid)
            oid = self.storage.create_object(tid, value, name=name)
            od = self.registry.get_or_create(oid)
            self.lock_manager._grant(td, od, WRITE)
            if EventKind.WRITE in self.events.watched:
                self.events.emit(EventKind.WRITE, tid, oid=oid, created=True)
            return oid

    def try_read(self, tid, oid):
        """Read ``oid`` for ``tid``; section 4.2 ``read``.

        Returns ``(outcome, value)``; ``value`` is ``None`` on a blocked
        outcome.
        """
        with self._mutex:
            td = self._active_td(tid)
            outcome = self.lock_manager.acquire(td, oid, READ)
            if outcome is not GRANTED:
                return outcome, None
            try:
                value = self.storage.read_object(tid, oid)
            except QuarantinedObjectError:
                self._abort_poisoned(tid, oid)
                raise
            if EventKind.READ in self.events.watched:
                self.events.emit(EventKind.READ, tid, oid=oid)
            return GRANTED, value

    def try_write(self, tid, oid, value):
        """Write ``oid`` for ``tid``; section 4.2 ``write`` (logs images)."""
        with self._mutex:
            td = self._active_td(tid)
            outcome = self.lock_manager.acquire(td, oid, WRITE)
            if outcome is not GRANTED:
                return outcome
            try:
                self.storage.write_object(tid, oid, value)
            except QuarantinedObjectError:
                self._abort_poisoned(tid, oid)
                raise
            if EventKind.WRITE in self.events.watched:
                self.events.emit(EventKind.WRITE, tid, oid=oid)
            return GRANTED

    def _abort_poisoned(self, tid, oid):
        """Quarantine escalation: a transaction that touched a quarantined
        object must abort rather than propagate garbage."""
        self.abort(tid, reason=f"poisoned by quarantined object {oid!r}")

    def try_operation(self, tid, oid, operation, transform):
        """Invoke a semantic operation on ``oid`` (section 5 direction).

        ``transform`` maps the current value to ``(new_value, result)``;
        a ``new_value`` of ``None`` means read-only.  The lock taken is the
        named ``operation``, so operations the conflict table declares
        commutative proceed concurrently.  Returns ``(outcome, result)``.
        """
        with self._mutex:
            td = self._active_td(tid)
            outcome = self.lock_manager.acquire(td, oid, operation)
            if outcome is not GRANTED:
                return outcome, None
            try:
                value = self.storage.read_object(tid, oid)
            except QuarantinedObjectError:
                self._abort_poisoned(tid, oid)
                raise
            new_value, result = transform(value)
            if new_value is not None:
                self.storage.write_object(tid, oid, new_value)
            if EventKind.OPERATION in self.events.watched:
                self.events.emit(
                    EventKind.OPERATION, tid, oid=oid, operation=operation
                )
            return GRANTED, result

    # ------------------------------------------------------------------
    # savepoints (extension: partial rollback within one transaction)
    # ------------------------------------------------------------------

    def savepoint(self, tid):
        """Mark the current point in ``tid``'s update history.

        Returns an opaque token for :meth:`rollback_to`.  Cheap: no log
        record is written; the token is the log's current high LSN,
        registered on the transaction so stale tokens can be refused.
        """
        with self._mutex:
            td = self._active_td(tid)
            token = self.storage.log.last_lsn_value
            td.savepoints.append(token)
            return token

    def rollback_to(self, tid, savepoint):
        """Undo ``tid``'s updates made after ``savepoint``.

        Before images are installed newest-first (compensations logged),
        exactly like an abort restricted to the savepoint suffix — but
        the transaction stays live and keeps all its locks, so it can
        retry along another path.  Returns the number of undone updates.

        Rolling back **destroys savepoints taken after the target** (as
        in SQL): a later ``rollback_to`` with a destroyed token would
        re-install before images of updates already undone, resurrecting
        intermediate values — so it raises
        :class:`~repro.common.errors.InvalidStateError` instead (a bug
        class found by the savepoint property test).
        """
        with self._mutex:
            td = self._active_td(tid)
            if savepoint not in td.savepoints:
                raise InvalidStateError(
                    f"savepoint {savepoint!r} of {tid!r} does not exist"
                    " (never taken, or destroyed by an earlier rollback)"
                )
            undone = self.storage.undo_to(tid, savepoint)
            # Keep the target itself (re-rollback is legal); drop later.
            position = td.savepoints.index(savepoint)
            del td.savepoints[position + 1 :]
            if EventKind.PARTIAL_ROLLBACK in self.events.watched:
                self.events.emit(
                    EventKind.PARTIAL_ROLLBACK, tid,
                    savepoint=savepoint, undone=undone,
                )
            return undone

    # ------------------------------------------------------------------
    # the new primitives (section 2.2)
    # ------------------------------------------------------------------

    def delegate(self, ti, tj, oids=None):
        """Transfer responsibility for ``ti``'s operations to ``tj``.

        ``oids`` of ``None`` delegates everything ``ti`` is responsible
        for.  Lock requests move between TDs, permits given by ``ti`` on
        the delegated objects are rewritten to ``tj``, and a delegation
        record reaches the log so recovery attributes undo to ``tj``.
        """
        with self._mutex:
            td_i = self.table.get(ti)
            td_j = self.table.get(tj)
            if td_i.status.is_terminated:
                raise InvalidStateError(f"{ti!r} has terminated; cannot delegate")
            if td_j.status.is_terminated:
                raise InvalidStateError(f"{tj!r} has terminated; cannot receive")
            oid_set = set(oids) if oids is not None else None
            moved = self.lock_manager.delegate(td_i, td_j, oids=oid_set)
            self.permits.rewrite_giver(ti, tj, oids=oid_set)
            if moved:
                self.storage.log_delegate(ti, tj, moved)
            self.stats["delegations"] += 1
            if EventKind.DELEGATE in self.events.watched:
                self.events.emit(
                    EventKind.DELEGATE, ti, to=tj, oids=tuple(moved)
                )
            return moved

    def permit(self, ti, tj=None, oids=None, operations=None):
        """Allow conflicting access: all four forms of section 2.2.

        * ``permit(ti, tj, oids, ops)`` — the fully specific form;
        * ``permit(ti, tj, operations=ops)`` — any object ``ti`` accessed
          or holds permissions on (expanded at call time, per section 4.2);
        * ``permit(ti, tj)`` — any operation on any such object;
        * ``permit(ti, oids=…, operations=…)`` — any transaction
          (``tj`` omitted).
        """
        with self._mutex:
            td_i = self.table.get(ti)
            if td_i.status.is_terminated:
                raise InvalidStateError(
                    f"{ti!r} has terminated; its permits are gone"
                )
            if tj is not None:
                td_j = self.table.get(tj)
                if td_j.status.is_terminated:
                    raise InvalidStateError(
                        f"{tj!r} has terminated; permitting it is moot"
                    )
            if oids is None:
                oid_list = list(
                    dict.fromkeys(
                        td_i.locked_object_ids()
                        + self.permits.objects_permitted_to(ti)
                    )
                )
            else:
                oid_list = list(oids)
            op_list = list(operations) if operations is not None else [None]
            granted = []
            for oid in oid_list:
                for operation in op_list:
                    granted.extend(
                        self.permits.grant(
                            oid, ti, receiver=tj, operation=operation
                        )
                    )
            return granted

    def form_dependency(self, dep_type, ti, tj):
        """Form a dependency of ``dep_type`` between ``ti`` and ``tj``.

        Cycle-creating commit dependencies are refused
        (:class:`~repro.common.errors.DependencyCycleError`).  When either
        party has already terminated, no edge is stored (it could never be
        cleaned up): the dependency is *resolved on the spot* — satisfied
        constraints are a no-op returning ``None``, constraints that now
        force the dependent to abort do so immediately, and constraints
        that are already violated (or unenforceable) raise
        :class:`~repro.common.errors.InvalidStateError`.
        """
        with self._mutex:
            td_i = self.table.get(ti)
            td_j = self.table.get(tj)
            if td_i.status.is_terminated or td_j.status.is_terminated:
                return self._resolve_terminated_dependency(
                    dep_type, td_i, td_j
                )
            edge = self.dependencies.add(dep_type, ti, tj)
            if EventKind.FORM_DEPENDENCY in self.events.watched:
                self.events.emit(
                    EventKind.FORM_DEPENDENCY, ti, other=tj,
                    dep_type=dep_type.name,
                )
            return edge

    def _resolve_terminated_dependency(self, dep_type, td_i, td_j):
        """Resolve form_dependency(dep_type, ti, tj) with a dead party.

        Convention reminder: the constrained (dependent) party is ``tj``;
        ``ti`` is the dependee.
        """
        ti, tj = td_i.tid, td_j.tid
        D = DependencyType
        if td_j.status is TransactionStatus.ABORTED:
            return None  # every constraint on an aborted dependent is moot
        if td_j.status is TransactionStatus.COMMITTED:
            if dep_type is D.GC and (
                td_i.status is TransactionStatus.COMMITTED
            ):
                return None  # both committed: the group constraint held
            raise InvalidStateError(
                f"{tj!r} already committed; cannot constrain it with"
                f" {dep_type.name} now"
            )
        # The dependent is live; the dependee terminated.
        if td_i.status is TransactionStatus.COMMITTED:
            if dep_type in (D.CD, D.AD, D.BCD):
                return None  # satisfied: the dependee committed
            if dep_type in (D.ED, D.BAD):
                self.abort(tj, reason=f"{dep_type.name}: {ti!r} committed")
                return None
            raise InvalidStateError(
                f"cannot join {tj!r} into a commit group with already-"
                f"committed {ti!r}"
            )
        # The dependee aborted.
        if dep_type in (D.AD, D.GC, D.BCD):
            self.abort(tj, reason=f"{dep_type.name} on aborted {ti!r}")
            return None
        return None  # CD, BAD, ED: satisfied by the dependee's abort

    # ------------------------------------------------------------------
    # commit (section 4.2)
    # ------------------------------------------------------------------

    def try_commit(self, tid):
        """One pass of the commit algorithm; never blocks.

        Returns a :class:`CommitOutcome`.  BLOCKED outcomes name the
        transactions being waited for; the runtimes retry "starting at
        step 1".
        """
        with self._mutex:
            td = self.table.get(tid)
            status = td.status
            # Step 1: status checks.
            if status is TransactionStatus.COMMITTED:
                return CommitOutcome(CommitStatus.ALREADY_COMMITTED)
            if status.is_abort_bound:
                # Aborting is transient inside abort(); either way the
                # paper's step 1 answer is the same: commit returns 0.
                return CommitOutcome(CommitStatus.ABORTED)
            if status in CODE_RUNS:
                return CommitOutcome(CommitStatus.NOT_COMPLETED)
            if status is not TransactionStatus.COMMITTING:
                td.set_status(TransactionStatus.COMMITTING)
                if EventKind.COMMIT_REQUESTED in self.events.watched:
                    self.events.emit(EventKind.COMMIT_REQUESTED, tid)

            # Steps 2-3: resolve the group and its dependencies.  (The
            # probe answers a live slot, which step 6 empties: keep the
            # answer, not the slot.)
            linked = bool(self.dependencies.edges_involving(tid))
            members, ordered, others = (td,), (tid,), ()
            if linked:
                members, waiting, reason = self._group_verdict(tid)
                if reason:
                    self.abort(tid, reason=reason)
                    return CommitOutcome(CommitStatus.ABORTED)
                if waiting:
                    self.stats["commit_blocks"] += 1
                    if EventKind.COMMIT_BLOCKED in self.events.watched:
                        self.events.emit(
                            EventKind.COMMIT_BLOCKED, tid,
                            waiting=tuple(waiting),
                        )
                    return CommitOutcome(
                        CommitStatus.BLOCKED,
                        waiting_for=tuple(sorted(set(waiting))),
                    )
                ordered = tuple([m.tid for m in members])
                others = tuple([t for t in ordered if t != tid])

            # Steps 4-6: commit the whole group atomically.
            self.failpoint("commit.log")
            self.storage.log_commit(tid, group=others)
            self.failpoint("commit.logged")
            for member_td in members:
                if member_td.status is not TransactionStatus.COMMITTING:
                    member_td.set_status(TransactionStatus.COMMITTING)
                member_td.set_status(TransactionStatus.COMMITTED)
                self.table.retire(member_td.tid)
            never_beginnable = []
            for member_td in members:
                member = member_td.tid
                if linked:
                    # A BAD dependent waited for this member to abort (it
                    # never will now); an ED dependent is excluded by this
                    # member's commit.  Both must abort.
                    for edge in self.dependencies.incoming(member):
                        if edge.dep_type.aborts_dependent_on_commit:
                            never_beginnable.append(edge.dependent)
                    self.dependencies.remove_involving(member)
                self.lock_manager.release_all(member_td)
                member_td.finish()
                self.permits.remove_involving(member)
                self.stats["committed"] += 1
                if EventKind.COMMITTED in self.events.watched:
                    self.events.emit(
                        EventKind.COMMITTED, member, group=others
                    )
            for dependent in never_beginnable:
                dep_td = self.table.maybe_get(dependent)
                if dep_td is not None and not dep_td.status.is_terminated:
                    self.abort(
                        dependent, reason="excluded by dependee's commit"
                    )
            return CommitOutcome(CommitStatus.COMMITTED, group=ordered)

    def _group_verdict(self, tid, when=""):
        """Steps 2-3 of commit (and of a vote) for a ``tid`` with edges:
        ``(members, waiting, reason)`` — the GC group's TDs in tid order,
        each fetched once; the tids to wait for; and, when ``tid`` must
        abort instead, why (``when`` qualifies a GC member's abort).  A
        member that aborted decides at once; otherwise anything to wait
        for comes before an AD dependee that aborted."""
        group = self.dependencies.gc_group(tid)
        members = [self.table.get(member) for member in sorted(group)]
        waiting = []
        reason = ""
        for member_td in members:
            status = member_td.status
            if status.is_abort_bound:
                return members, (), f"GC member {member_td.tid!r} aborted{when}"
            if status in CODE_RUNS:
                waiting.append(member_td.tid)
                continue
            aborted = self._dependency_waits(member_td.tid, group, waiting)
            if aborted is not None and not reason:
                reason = f"AD on aborted {aborted!r}"
        if waiting:
            return members, waiting, ""
        return members, (), reason

    def _dependency_waits(self, member, group, waiting):
        """Add to ``waiting`` the outside-group dependees whose
        termination ``member`` awaits, in one pass over its outgoing
        edges; return the first outside AD dependee that already aborted,
        or ``None``.  (An inside one is a member: its own status says.)"""
        aborted = None
        for edge in self.dependencies.outgoing(member):
            if not edge.dep_type.blocks_commit:
                continue
            if edge.dependee in group:
                continue  # simultaneous commit satisfies in-group CD/AD
            dependee = self.table.maybe_get(edge.dependee)
            if dependee is None:
                continue
            status = dependee.status
            if not status.is_terminated:
                waiting.append(edge.dependee)
            elif (
                aborted is None
                and edge.dep_type is DependencyType.AD
                and status.is_abort_bound
            ):
                aborted = edge.dependee
        return aborted

    def try_prepare(self, tid, gid=0, coordinator="", sites=()):
        """One pass of a distributed-commit vote; never blocks.

        The participant half of presumed-abort two-phase commit: run the
        same viability checks as :meth:`try_commit` steps 1-3 over the
        local GC group, and instead of committing, force-log a
        :class:`~repro.storage.log.PrepareRecord` and move every member
        to PREPARED.  A truthy outcome means the site may send
        VOTE-COMMIT; after that the group can only terminate by the
        coordinator's decision (or presumed-abort resolution).
        """
        with self._mutex:
            td = self.table.get(tid)
            status = td.status
            if status is TransactionStatus.COMMITTED:
                # A duplicated PREPARE after the decision already landed:
                # the answer that keeps the protocol idempotent is "yes".
                return PrepareOutcome(PrepareStatus.ALREADY_PREPARED)
            if status is TransactionStatus.PREPARED:
                return PrepareOutcome(PrepareStatus.ALREADY_PREPARED)
            if status.is_abort_bound:
                return PrepareOutcome(PrepareStatus.ABORTED)
            if status in CODE_RUNS:
                return PrepareOutcome(PrepareStatus.NOT_COMPLETED)

            members, ordered, others = (td,), (tid,), ()
            if self.dependencies.edges_involving(tid):
                members, waiting, reason = self._group_verdict(
                    tid, when=" before vote"
                )
                if reason:
                    self.abort(tid, reason=reason)
                    return PrepareOutcome(PrepareStatus.ABORTED)
                if waiting:
                    return PrepareOutcome(
                        PrepareStatus.BLOCKED,
                        waiting_for=tuple(sorted(set(waiting))),
                    )
                ordered = tuple([m.tid for m in members])
                others = tuple([t for t in ordered if t != tid])

            self.failpoint("prepare.log")
            self.storage.log_prepare(
                tid, group=others, gid=gid, coordinator=coordinator,
                sites=sites,
            )
            self.failpoint("prepare.logged")
            for member_td in members:
                if member_td.status is TransactionStatus.COMPLETED:
                    member_td.set_status(TransactionStatus.PREPARED)
                if EventKind.PREPARED in self.events.watched:
                    self.events.emit(
                        EventKind.PREPARED, member_td.tid, gid=gid,
                        coordinator=coordinator,
                    )
            return PrepareOutcome(PrepareStatus.PREPARED, group=ordered)

    def is_commit_requested(self, tid):
        """Whether ``tid`` is mid-commit (for the deadlock detector)."""
        with self._mutex:
            td = self.table.maybe_get(tid)
            return td is not None and td.status is TransactionStatus.COMMITTING

    def commit_waits_of(self, tid):
        """Current commit-wait targets of ``tid`` (deadlock detector)."""
        with self._mutex:
            group = self.dependencies.gc_group(tid)
            waiting = []
            for member in group:
                member_td = self.table.get(member)
                if member != tid and member_td.status in (
                    TransactionStatus.INITIATED,
                    TransactionStatus.RUNNING,
                ):
                    waiting.append(member)
                self._dependency_waits(member, group, waiting)
            return sorted(set(waiting))

    # ------------------------------------------------------------------
    # abort (section 4.2)
    # ------------------------------------------------------------------

    def abort(self, tid, reason=""):
        """Abort ``tid``: undo, release, cascade.  Returns ``False`` only
        when ``tid`` has already committed (the paper's return 0).

        The abort *closure* — GC group members and (transitive) AD/BCD
        dependents — aborts together: all members' updates are undone in
        one pass in global reverse-LSN order, so interleaved cooperative
        updates cannot resurrect an aborted value mid-cascade.
        """
        with self._mutex:
            td = self.table.get(tid)
            if td.status is TransactionStatus.COMMITTED:
                return False
            if td.status.is_abort_bound:
                return True
            closure = self._abort_closure(tid)
            for member_td in closure:
                if member_td.tid == tid:
                    member_td.abort_reason = reason
                else:
                    member_td.abort_reason = f"cascade from {tid!r}"
                    self.stats["cascaded_aborts"] += 1
                member_td.set_status(TransactionStatus.ABORTING)
                if EventKind.ABORT_REQUESTED in self.events.watched:
                    self.events.emit(
                        EventKind.ABORT_REQUESTED,
                        member_td.tid,
                        reason=member_td.abort_reason,
                    )
            self._finish_abort_group(closure)
            return True

    def _abort_closure(self, tid):
        """All TDs that must abort with ``tid``.

        GC is symmetric (the whole group aborts); AD cascades from
        dependee to dependent; a BCD dependent can never begin once its
        dependee aborted, so it is aborted too.  CD and BAD edges do not
        propagate aborts (a BAD dependent becomes free to begin).
        """
        closure = []
        seen = set()
        stack = [tid]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            current_td = self.table.maybe_get(current)
            if current_td is None or current_td.status.is_terminated:
                continue
            if current_td.status is TransactionStatus.ABORTING:
                continue  # already being torn down higher in the stack
            closure.append(current_td)
            for edge in self.dependencies.edges_involving(current):
                if edge.dep_type is DependencyType.GC:
                    stack.append(edge.other(current))
                elif (
                    edge.dep_type in (DependencyType.AD, DependencyType.BCD)
                    and edge.dependee == current
                ):
                    stack.append(edge.dependent)
        return closure

    def _finish_abort_group(self, closure):
        tids = [td.tid for td in closure]
        # Step 2: coordinated undo across the whole closure.
        self.failpoint("abort.undo")
        self.storage.undo_many(tids)
        self.failpoint("abort.undone")
        for td in closure:
            tid = td.tid
            # Step 3: release all locks held by the member.
            self.lock_manager.release_all(td)
            # Steps 4-5: drop every dependency edge touching the member
            # (cascades were already captured by the closure).
            self.dependencies.remove_involving(tid)
            self.permits.remove_involving(tid)
            # Step 6: terminal state, log completion.
            self.storage.log_abort(tid)
            td.set_status(TransactionStatus.ABORTED)
            self.table.retire(tid)
            td.finish()
            self.stats["aborted"] += 1
            if EventKind.ABORTED in self.events.watched:
                self.events.emit(
                    EventKind.ABORTED, tid, reason=td.abort_reason
                )

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------

    def sync(self):
        """Make every logged commit durable now.

        With a group-commit coalescer, commits between batch boundaries
        sit in the deferral window; ``sync`` drains it (one flush).
        Without one this is a plain extra flush.
        """
        with self._mutex:
            self.storage.sync_log()

    def checkpoint(self, truncate=False):
        """Flush pages and write a checkpoint record naming active tids.

        ``truncate=True`` discards the log when the system is quiescent
        (no active transactions), bounding restart-recovery time.

        Checkpoints run one at a time.  A truncating one holds the mutex
        throughout.  Any other holds it only to read the active set and
        the redo marks — every page change is made under the mutex, so
        no record is then appended and not yet installed — and flushes
        while object operations go on: the storage serializes each page
        under its store's lock, and a page changed since the mark is
        redone from the log.
        """
        with self._checkpointing:
            with self._mutex:
                active = [
                    td.tid for td in self.table.live() if td.status.is_active
                ]
                if truncate:
                    return self.storage.checkpoint(active=active, truncate=True)
                marks = self.storage.log_marks()
            return self.storage.checkpoint(active=active, marks=marks)
