"""The storage manager facade.

:class:`StorageManager` wires disks, buffer caches, object stores and
write-ahead logs together — one :class:`ShardStack` of them per shard,
one shard by default — and exposes the operations the section 4.2
algorithms need: the object operations (``read`` steps 2-4, ``write``
steps 2-6 with its two log steps made one record, written first),
``undo`` (``abort`` step 2), the ``log_*`` writers, ``crash`` /
``recover`` and ``checkpoint``.

A shard stack does object, page and log work and nothing else; oid
allocation, placement, undo, recovery, checkpoints and the quarantine
are the facade's alone.  With one shard ``log`` *is* that shard's
:class:`~repro.storage.log.WriteAheadLog` and an operation costs one
call more than the stack's own; with several it is the merged
:class:`~repro.storage.segmented.SegmentedLog`, objects are placed by a
:class:`~repro.storage.segmented.ShardRouter`, and commits pay the
cross-shard barrier (:mod:`repro.storage.segmented`).

One rule holds at every site that changes a page, forward and backward
alike: **append the record, then install**, then the unpin that marks
the frame dirty and stamps its ``page_lsn`` — forward, the operation's
single unpin.  A page can be evicted the moment it is unpinned, and the
pool's write-ahead gate can only force records that exist.
"""

from __future__ import annotations

import threading

from repro.common.errors import QuarantinedObjectError, StorageError
from repro.common.ids import ObjectId, Tid
from repro.common.latch import LatchMode
from repro.storage.buffer import BufferPool
from repro.storage.disk import InMemoryDiskManager
from repro.storage.log import MemoryLogDevice, WriteAheadLog
from repro.storage.objects import ObjectStore
from repro.storage.recovery import RecoveryManager, undo_updates
from repro.storage.segmented import (
    LsnSequencer,
    SegmentedLog,
    ShardRouter,
    move_restart_point,
    open_at_highest,
)


class ShardStack:
    """One shard's disk, buffer pool, object store and log segment.  The
    pool's write-ahead gate holds the log, never the facade: lock order
    is pool -> log, and no cycle keeps a crashed stack's log alive."""

    def __init__(self, disk, log, capacity, injector):
        self.disk = disk
        self.log = log
        self.pool = BufferPool(disk, capacity=capacity, injector=injector)
        self.pool.wal = log
        self.objects = ObjectStore(self.pool)

    def read_object(self, oid):
        """Read ``oid`` under an S latch."""
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

    def create_at(self, tid, oid, value):
        """Create ``oid``: an update with no before image, so undo
        deletes it — logged before the page is touched, which may be
        evicted before this returns."""
        self.log.log_update(tid, oid, None, value)
        self.objects.create(value, oid)


class StorageManager:
    """Facade over ``n_shards`` shard stacks (one by default).

    ``disk`` and ``log`` are one shard's page store and
    :class:`~repro.storage.log.WriteAheadLog`, or lists of them, one per
    shard, on any devices; missing ones are built in memory.
    ``group_commit`` (an int batch size, or with one shard a
    :class:`~repro.storage.log.FlushCoalescer`, which paces one log)
    enables commit flush coalescing on the logs built here: N commits
    share one device ``fsync``.  A supplied log's own policy wins.
    """

    def __init__(
        self,
        disk=None,
        log=None,
        capacity=256,
        group_commit=None,
        injector=None,
        n_shards=None,
    ):
        logs = log if isinstance(log, list) else None if log is None else [log]
        disks = disk if isinstance(disk, list) else None if disk is None else [disk]
        n_shards = n_shards or len(logs or disks or [None])
        if logs is None:
            logs = [
                WriteAheadLog(MemoryLogDevice(injector), group_commit=group_commit)
                for __ in range(n_shards)
            ]
        if disks is None:
            disks = [InMemoryDiskManager(injector=injector) for __ in range(n_shards)]
        if not len(logs) == len(disks) == n_shards:
            raise StorageError(f"{n_shards} shards need as many disks and logs")
        self.injector = injector
        self.shards = []
        for disk, log in zip(disks, logs):
            if injector is not None and log.group_commit is not None:
                log.group_commit.injector = injector
            self.shards.append(ShardStack(disk, log, capacity, injector))
        self.router = ShardRouter(n_shards)
        # Read-path quarantine (repro.resilience): objects registered
        # here poison any transaction that touches them.  ``None`` means
        # the escalation is off and damaged pages only surface via the
        # checksum quarantine in ObjectStore._rebuild_table.
        self.quarantine = None
        self._oid_lock = threading.Lock()
        self._next_oid = 1
        # Shards each live transaction logged updates into, the commit
        # barrier's input: kept only when there are several.
        self._footprints = {}
        self._footprint_lock = threading.Lock()
        self.cross_shard_commits = 0
        self._one = None  # the stack, when there is only one
        if n_shards == 1:
            self._one = stack = self.shards[0]
            self.log, self.disk = stack.log, stack.disk
            self.pool, self.objects = stack.pool, stack.objects
        else:
            self.sequencer = LsnSequencer()
            for stack in self.shards:
                stack.log.join(self.sequencer)
            open_at_highest([stack.log for stack in self.shards])
            self.log = SegmentedLog(self)
        self._reopen()

    @property
    def n_shards(self):
        return len(self.shards)

    def _note_touch(self, tid, shard):
        with self._footprint_lock:
            self._footprints.setdefault(tid, set()).add(shard)

    def footprint_of(self, tid):
        """Shards ``tid`` has logged updates into (tests and telemetry);
        with one shard, that one."""
        if self._one is not None:
            return {0}
        with self._footprint_lock:
            return set(self._footprints.get(tid, ()))

    # -- object operations -----------------------------------------------------

    def allocate_object(self, name=""):
        """Reserve the next oid from the one counter — so every shard
        count creates the oids the single-shard oracle does — and place
        it, before any shard is touched."""
        with self._oid_lock:
            oid = ObjectId(self._next_oid, name=name)
            self._next_oid += 1
            if self._one is not None:
                return oid, 0
            return oid, self.router.place(oid, name=name)

    def create_object(self, tid, value, name=""):
        """Create an object on behalf of ``tid``; returns its id."""
        oid, shard = self.allocate_object(name=name)
        self.shards[shard].create_at(tid, oid, value)
        if self._one is None:
            self._note_touch(tid, shard)
        return oid

    def read_object(self, tid, oid):
        """Read ``oid`` (its lock already held by ``tid``)."""
        quarantine = self.quarantine
        if quarantine is not None and quarantine.objects:
            quarantine.check(tid, oid, op="read")
        stack = self._one or self.shards[self.router.shard_of(oid)]
        return stack.read_object(oid)

    def write_object(self, tid, oid, value):
        quarantine = self.quarantine
        if quarantine is not None and quarantine.objects:
            quarantine.check(tid, oid, op="write")
        if self._one is not None:
            return self._one.write_object(tid, oid, value)
        shard = self.router.shard_of(oid)
        self.shards[shard].write_object(tid, oid, value)
        self._note_touch(tid, shard)

    def delete_object(self, tid, oid):
        if self._one is not None:
            return self._one.delete_object(tid, oid)
        shard = self.router.shard_of(oid)
        self.shards[shard].delete_object(tid, oid)
        self._note_touch(tid, shard)

    # -- undo ----------------------------------------------------------------------

    def install(self, oid, image):
        stack = self._one or self.shards[self.router.shard_of(oid)]
        stack.objects.install(oid, image)

    def undo(self, tid):
        """Restore the before image of every update ``tid`` is
        responsible for (delegation honoured), newest first, each logged
        as a compensation record before it is installed; returns how
        many."""
        return self.undo_many([tid])

    def undo_many(self, tids):
        """Undo several transactions in one pass, in global reverse-LSN
        order: an abort cascade's members interleave on shared objects,
        and undone one by one, one member's aborted value could be
        re-installed over another's undo."""
        return undo_updates(self.log, self.install, tids)

    def undo_to(self, tid, savepoint_lsn_value):
        """Partial rollback: undo ``tid``'s updates above a savepoint
        (locks untouched — savepoint semantics, not abort)."""
        return undo_updates(
            self.log, self.install, [tid], above=savepoint_lsn_value
        )

    # -- log writers -----------------------------------------------------------

    def _touched(self, tid, group=()):
        """The shards ``tid`` and its group logged updates into."""
        with self._footprint_lock:
            touched = set()
            for member in {tid, *group}:
                touched |= self._footprints.get(member, set())
            return touched

    def _barrier(self, touched):
        """The home segment of a group that touched ``touched`` — the
        lowest shard, 0 for none — after flushing every other one:
        images in foreign segments are durable no later than the record
        the home segment is about to write."""
        home = min(touched, default=0)
        for shard in sorted(touched - {home}):
            self.shards[shard].log.flush()
        return self.shards[home].log

    def _forget_footprints(self, tid, group=()):
        with self._footprint_lock:
            for member in {tid, *group}:
                self._footprints.pop(member, None)

    def log_commit(self, tid, group=()):
        """Durably log the commit of ``tid`` (plus group members): past
        the barrier, in the home segment's coalescer.  A group that
        logged updates into more than one shard counts in
        ``cross_shard_commits``."""
        if self._one is not None:
            return self.log.log_commit(tid, group=group)
        touched = self._touched(tid, group)
        record = self._barrier(touched).log_commit(tid, group=group)
        if len(touched) > 1:
            self.cross_shard_commits += 1
        self._forget_footprints(tid, group)
        return record

    def log_abort(self, tid):
        """Log completion of ``tid``'s abort, past the barrier: durable,
        it says the compensations in every segment are."""
        if self._one is not None:
            return self.log.log_abort(tid)
        record = self._barrier(self._touched(tid)).log_abort(tid)
        self._forget_footprints(tid)
        return record

    def log_delegate(self, tid, delegatee, oids):
        """Log a delegation so recovery attributes undo correctly: one
        record per segment holding some of ``oids``, with those oids."""
        if self._one is not None:
            return self.log.log_delegate(tid, delegatee, oids)
        by_shard = {}
        for oid in oids:
            by_shard.setdefault(self.router.shard_of(oid), []).append(oid)
        records = []
        for shard, moved in sorted(by_shard.items()):
            records.append(self.shards[shard].log.log_delegate(tid, delegatee, moved))
            self._note_touch(delegatee, shard)
        return records

    def log_prepare(self, tid, group=(), gid=0, coordinator="", sites=()):
        """Force-log a distributed-commit vote, past the barrier."""
        log = (
            self.log if self._one is not None
            else self._barrier(self._touched(tid, group))
        )
        return log.log_prepare(
            tid, group=group, gid=gid, coordinator=coordinator, sites=sites
        )

    def log_decision(self, tid, gid, verdict, group=(), participants=()):
        """Force-log a coordinator commit decision, past the barrier."""
        log = (
            self.log if self._one is not None
            else self._barrier(self._touched(tid, group))
        )
        record = log.log_decision(
            tid, gid, verdict, group=group, participants=participants
        )
        if self._one is None and verdict == "commit":
            self._forget_footprints(tid, group)
        return record

    def log_takeover(self, gid, epoch, old_coordinator, verdict, votes=()):
        """Force-log a recovery coordinator's takeover claim, in segment
        0: a claim touches no object."""
        return self.shards[0].log.log_takeover(
            gid, epoch, old_coordinator, verdict, votes=votes
        )

    def log_workflow(self, wid, kind, payload=b"", tid=None):
        """Force-log a workflow state transition, in segment 0: it
        touches no object.  The forced flush makes an attempt durable
        before its step's commit record can be appended anywhere."""
        return self.shards[0].log.log_workflow(
            wid, kind, payload=payload, tid=tid
        )

    # -- durability control --------------------------------------------------------

    def sync_log(self):
        """Force every log durable *now*, draining any group-commit batch
        (a no-op flush when nothing is pending)."""
        for stack in self.shards:
            stack.log.flush()

    def log_marks(self):
        """Each segment's last LSN: the redo marks of a checkpoint."""
        return [stack.log.last_lsn for stack in self.shards]

    def checkpoint(self, active=(), truncate=False, marks=None):
        """Flush every pool, then write one marker per segment carrying
        the segment's last LSN as read *before* the flushes (read after,
        it could cover a record appended meanwhile whose page the flush
        missed): every image at or below it is in the page file once the
        marker is durable, so redo begins above it.  Once every marker
        is durable the restart point moves up, worked out from the logs'
        own indexes, whatever ``active`` says.  Returns segment 0's.

        ``marks`` are :meth:`log_marks` read earlier by a caller that
        knew no record was then appended and not yet installed; it may
        let operations run during the flushes, for each page is written
        whole (:meth:`ObjectStore.flush`) and redo covers what changed
        after the mark.  By default they are read here.

        With ``truncate=True`` and no active transactions this is a
        *sharp* checkpoint: the logs are compacted too.  Each is
        discarded — highest segment first, so a power cut part-way keeps
        no image whose commit record, in a lower home segment, is gone —
        and begins again with one image of each of its shard's objects
        (:meth:`_log_base_images`), below the new mark: the log alone
        still rebuilds any page, so a page torn later is redone like one
        torn before any truncation.  What restart reads of the history
        survives in the index, and the new marker carries it.
        """
        segments = [stack.log for stack in self.shards]
        if marks is None:
            marks = self.log_marks()
        for stack in self.shards:
            stack.objects.flush()
        if truncate and not active:
            # A record in one segment may name a tid committed in another.
            committed = self.log.analysis()[0] if self._one is None else ()
            for segment in reversed(segments):
                segment.truncate(committed)
            marks = [self._log_base_images(stack) for stack in self.shards]
        markers = [
            segment.log_checkpoint(active, mark)
            for segment, mark in zip(segments, marks)
        ]
        move_restart_point(segments, markers)
        return markers[0]

    @staticmethod
    def _log_base_images(stack):
        """Log every object of ``stack`` as it stands, each as a
        redo-only image under tid 0 (no transaction owns it, nothing
        undoes it), and return the segment's last LSN: the mark, for
        every one of them is in the flushed page file.  Restart redo
        reads them only under a void mark — a page was torn and reset.
        An object already unreadable (a chunk lost, with its page, to no
        log) has no image to keep, and stays as it is."""
        objects, log = stack.objects, stack.log
        for value in objects.object_ids():
            oid = ObjectId(value)
            try:
                image = objects.read(oid)
            except QuarantinedObjectError:
                continue
            log.log_compensation(Tid(0), oid, image)
        return log.last_lsn

    def crash(self):
        """Simulate a crash: every cache and unflushed record is lost,
        and each log decodes what survived, once."""
        for stack in self.shards:
            stack.pool.drop_all()
            stack.log.device.crash()
            stack.log.resync()
        self._footprints.clear()

    def recover(self):
        """Rebuild each object table whose cache is gone, then placement
        and allocation, and run restart recovery over the log (merged by
        LSN when there are several), installing through this facade."""
        for stack in self.shards:
            stack.objects.refresh_table()
        self._reopen()
        report = RecoveryManager(self.log, self).run()
        if self.quarantine is not None:
            # Escalate the torn-page quarantine: remember the damaged
            # pages so post-recovery triage can quarantine their objects.
            for stack in self.shards:
                for page_id in stack.objects.damaged_pages:
                    self.quarantine.note_damaged_page(page_id)
        return report

    def _reopen(self):
        """Placement and allocation from what a restart finds: each
        shard's object table (the last checkpoint flushed every object
        there) united with every oid its log may install — the tail's,
        and under a void mark the prefix's, for a torn page empties part
        of a table — first shard first.  The counter resumes above them
        all: redo installs an object created and deleted in the tail
        once, as absent, so no table holds its id, and it must never be
        issued again."""
        directory = {}
        for index, stack in enumerate(self.shards):
            for oid in stack.log.image_oids().union(stack.objects.object_ids()):
                directory.setdefault(oid, index)
        if self._one is None:
            self.router.rebuild(directory)
        with self._oid_lock:
            self._next_oid = max(self._next_oid, max(directory, default=0) + 1)

    def close(self):
        """Flush everything and release file handles."""
        for stack in self.shards:
            stack.pool.flush_all()
            stack.log.flush()
            stack.log.device.close()
            stack.disk.close()

    # -- introspection -----------------------------------------------------

    def object_state(self):
        """``{oid value: bytes}`` across shards (chaos oracles)."""
        return {
            oid_value: stack.objects.read(ObjectId(oid_value))
            for stack in self.shards
            for oid_value in stack.objects.object_ids()
        }

    def segment_stats(self):
        """Per-shard WAL/pool stats rows (obs collectors, benches)."""
        rows = []
        for index, stack in enumerate(self.shards):
            coalescer = stack.log.group_commit
            rows.append({
                "shard": index,
                "appends": stack.log.base + len(stack.log),
                "flushes": stack.log.flush_count,
                "wal_forces": stack.pool.wal_forces,
                "batches_flushed": coalescer.batches_flushed if coalescer else 0,
                "enrolled_commits": coalescer.enrolled_total if coalescer else 0,
                "objects": len(stack.objects._locations),
            })
        return rows
