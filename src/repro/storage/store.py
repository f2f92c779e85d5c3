"""The storage manager facade.

:class:`StorageManager` wires the disk manager, buffer cache, object store,
and write-ahead log together and exposes exactly the operations the
transaction manager's section 4.2 algorithms need:

* ``read_object`` — pin the object's frame once, S-latch it, read,
  release (the paper's ``read`` steps 2-4; step 1, locking, is the
  transaction manager's job);
* ``write_object`` — pin once, X-latch, read the before image, log the
  update, write on the same frame, release (the paper's ``write`` steps
  2-6, with its two log steps 3 and 5 made one record written before
  step 4: both images are known by then, and the latch is held across
  record and write);
* ``create_object`` / ``delete_object`` — updates with an absent image on
  one side;
* ``undo`` — restore before images for an aborting transaction, each
  logged as a compensation record and then installed (used by ``abort``
  step 2);
* ``log_commit`` / ``log_delegate`` — the log entries ``commit`` step 4 and
  ``delegate`` require;
* ``crash`` / ``recover`` — crash simulation and restart recovery;
* ``checkpoint`` — flush pages, mark where restart redo may begin and,
  when quiescent, reset the log.

One rule holds at every site that changes a page, forward and backward
alike: **append the record, then install**, then the unpin that marks
the frame dirty and stamps its ``page_lsn`` — forward, the operation's
single unpin.  A page can be evicted the moment it is unpinned, and the
pool's write-ahead gate can only force records that exist.
"""

from __future__ import annotations

from repro.common.latch import LatchMode
from repro.storage.buffer import BufferPool
from repro.storage.disk import InMemoryDiskManager
from repro.storage.log import WriteAheadLog
from repro.storage.objects import ObjectStore
from repro.storage.recovery import RecoveryManager, undo_updates


class LoggedUndo:
    """The undo half of a storage facade: before images read from
    ``self.log`` (one log, or the merged view of several segments),
    compensated through the log and then applied with ``self.install``
    — all by :func:`~repro.storage.recovery.undo_updates`."""

    def undo(self, tid):
        """Install before images for every update ``tid`` is responsible for.

        Reads the log (as the paper's abort step 2 does), honouring
        delegation, and restores images newest-first, each logged as a
        compensation record before it is installed.  Returns the number
        of undone updates.
        """
        return self.undo_many([tid])

    def undo_many(self, tids):
        """Undo several transactions' updates in one coordinated pass.

        An abort cascade (AD chains, GC groups) takes down transactions
        whose updates interleave on shared objects; undoing each member
        separately could re-install one member's aborted values over
        another's undo.  Merging all their updates and restoring before
        images in global reverse-LSN order restores exactly the state the
        group found.  Returns the number of undone updates.
        """
        return undo_updates(self.log, self.install, tids)

    def undo_to(self, tid, savepoint_lsn_value):
        """Partial rollback: undo ``tid``'s updates newer than a savepoint.

        Restores before images (newest first) for updates ``tid`` is
        responsible for whose LSN exceeds ``savepoint_lsn_value``, each
        logged as a compensation record first.  Locks are untouched —
        savepoint semantics, not abort.  Returns the number of undone
        updates.
        """
        return undo_updates(
            self.log, self.install, [tid], above=savepoint_lsn_value
        )


class StorageManager(LoggedUndo):
    """Facade over pages, cache, objects, and the log.

    ``group_commit`` (an int batch size or a
    :class:`~repro.storage.log.FlushCoalescer`) enables commit flush
    coalescing on a default-constructed log: N commits share one device
    ``fsync``.  When an explicit ``log`` is supplied its own policy
    wins.
    """

    def __init__(
        self,
        disk=None,
        log=None,
        capacity=256,
        group_commit=None,
        injector=None,
    ):
        self.injector = injector
        if disk is None:
            disk = InMemoryDiskManager(injector=injector)
        self.disk = disk
        if log is None:
            from repro.storage.log import MemoryLogDevice

            log = WriteAheadLog(
                MemoryLogDevice(injector=injector), group_commit=group_commit
            )
        self.log = log
        if injector is not None and self.log.group_commit is not None:
            self.log.group_commit.injector = injector
        self.pool = BufferPool(self.disk, capacity=capacity, injector=injector)
        # Read-path quarantine (repro.resilience): objects registered
        # here poison any transaction that touches them.  ``None`` means
        # the escalation is off and damaged pages only surface via the
        # checksum quarantine in ObjectStore._rebuild_table.
        self.quarantine = None
        # The WAL rule: no dirty page reaches disk before the log records
        # that can undo its updates are durable.  The pool stamps each
        # dirty frame with the log's last LSN and, before writing it
        # back, has the log force itself that far — a device sync only
        # when the record is still volatile (chaos crash sweeps fail
        # without this ordering).  The pool holds the log, never this
        # manager: lock order is pool -> log, and no cycle keeps a
        # crashed stack's decoded log alive.
        self.pool.wal = self.log
        self.objects = ObjectStore(self.pool)

    # -- object operations (latched + logged) ----------------------------------

    def create_object(self, tid, value, name=""):
        """Create an object on behalf of ``tid``; returns its id.

        Logged as an update whose before image is absent, so aborting
        ``tid`` deletes the object again — and logged *before* the page
        is touched, like every update: a page holding the new object can
        be evicted before this returns, and the record that undoes it
        must already be in the log for the write-ahead gate to force.
        """
        oid = self.objects.reserve_oid(name=name)
        self.log.log_update(tid, oid, None, value)
        self.objects.create(value, oid=oid)
        return oid

    def read_object(self, tid, oid):
        """Read ``oid`` under an S latch (lock already held by ``tid``)."""
        quarantine = self.quarantine
        if quarantine is not None and quarantine.objects:
            quarantine.check(tid, oid, op="read")
        pinned = self.objects.frame_for(oid)
        frame = pinned.frame
        try:
            with frame.latch.held(LatchMode.SHARED):
                return self.objects.read(oid, pinned)
        finally:
            self.pool.unpin(frame.page.page_id)

    def write_object(self, tid, oid, value):
        """Write ``oid`` under an X latch: log the update (the before
        image read under that latch, the after image given), then write
        — on the frame pinned once, whose one unpin marks it dirty."""
        quarantine = self.quarantine
        if quarantine is not None and quarantine.objects:
            quarantine.check(tid, oid, op="write")
        objects = self.objects
        pinned = objects.frame_for(oid)
        frame = pinned.frame
        try:
            with frame.latch.held(LatchMode.EXCLUSIVE):
                self.log.log_update(tid, oid, objects.read(oid, pinned), value)
                objects.write(oid, value, pinned)
        finally:
            self.pool.unpin(frame.page.page_id, dirty=True)

    def delete_object(self, tid, oid):
        """Delete ``oid``, logged first so the deletion is undoable."""
        objects = self.objects
        pinned = objects.frame_for(oid)
        frame = pinned.frame
        try:
            with frame.latch.held(LatchMode.EXCLUSIVE):
                self.log.log_update(tid, oid, objects.read(oid, pinned), None)
                objects.delete(oid, pinned)
        finally:
            self.pool.unpin(frame.page.page_id, dirty=True)

    # -- transaction-manager hooks ----------------------------------------------

    def install(self, oid, image):
        self.objects.install(oid, image)

    def log_commit(self, tid, group=()):
        """Durably log the commit of ``tid`` (plus group members)."""
        return self.log.log_commit(tid, group=group)

    def log_abort(self, tid):
        """Log completion of ``tid``'s abort."""
        return self.log.log_abort(tid)

    def log_delegate(self, tid, delegatee, oids):
        """Log a delegation so recovery attributes undo correctly."""
        return self.log.log_delegate(tid, delegatee, oids)

    def log_prepare(self, tid, group=(), gid=0, coordinator="", sites=()):
        """Force-log a distributed-commit vote (always flushed)."""
        return self.log.log_prepare(
            tid, group=group, gid=gid, coordinator=coordinator, sites=sites
        )

    def log_decision(self, tid, gid, verdict, group=(), participants=()):
        """Force-log a coordinator commit decision (always flushed)."""
        return self.log.log_decision(
            tid, gid, verdict, group=group, participants=participants
        )

    def log_takeover(self, gid, epoch, old_coordinator, verdict, votes=()):
        """Force-log a recovery coordinator's takeover claim."""
        return self.log.log_takeover(
            gid, epoch, old_coordinator, verdict, votes=votes
        )

    def log_workflow(self, wid, kind, payload=b"", tid=None):
        """Force-log a workflow state transition (always flushed)."""
        return self.log.log_workflow(wid, kind, payload=payload, tid=tid)

    # -- durability control --------------------------------------------------------

    def sync_log(self):
        """Force the log durable *now*, draining any group-commit batch.

        The escape hatch for callers that cannot tolerate the coalescer's
        deferral window (e.g. before acknowledging a client).  A no-op
        flush when nothing is pending.
        """
        self.log.flush()

    def checkpoint(self, active=(), truncate=False):
        """Flush all dirty pages and write a checkpoint marker.

        The marker carries the log's last LSN as it was *before* the
        flush: every after image at or below it is in the page file once
        the marker is durable, so restart redo begins above it.  (Read
        after the flush, the mark would cover a record appended while
        the flush ran, whose page the flush may have missed.)  The log
        itself is kept, but once the marker is durable the log moves its
        restart point up — worked out from its own index, whatever
        ``active`` says — and holds, and at the next open decodes, only
        what lies above it.

        With ``truncate=True`` and no active transactions, this is a
        *sharp* checkpoint: every effect in the log is already on disk,
        so the log is discarded as well (the EX13 ablation benchmark
        measures both effects).
        """
        redo_lsn = self.log.last_lsn
        self.pool.flush_all()
        if truncate and not active:
            self.log.truncate()
        return self.log.log_checkpoint(active, redo_lsn)

    def crash(self):
        """Simulate a crash: lose the cache and all unflushed log records.

        The resync decodes what survived, once; :meth:`recover` then
        works from that decoded cache and its index.
        """
        self.pool.drop_all()
        self.log.device.crash()
        self.log.resync()  # the decoded cache must match the device now

    def recover(self):
        """Rebuild the object table, if the cache it was built from is
        gone, and run restart recovery."""
        self.objects.refresh_table()
        report = RecoveryManager(self.log, self.objects).recover()
        self.objects.retire_oids(self.log.image_oids())
        if self.quarantine is not None:
            # Escalate the torn-page quarantine: remember the damaged
            # pages so post-recovery triage (or tests) can quarantine
            # the objects that lived there.
            for page_id in self.objects.damaged_pages:
                self.quarantine.note_damaged_page(page_id)
        return report

    def close(self):
        """Flush everything and release file handles."""
        self.pool.flush_all()
        self.log.flush()
        self.log.device.close()
        self.disk.close()
