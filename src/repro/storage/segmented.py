"""Segmented WAL storage: one log segment and object store per shard.

The sharded engine (:mod:`repro.core.sharded`) gives each shard its own
complete storage stack — disk, buffer pool, object store, and a
:class:`~repro.storage.log.WriteAheadLog` *segment* with its own
:class:`~repro.storage.log.FlushCoalescer` — so group commit proceeds in
parallel per shard.  Three things knit the segments back into one
recoverable log:

* **Global LSNs.**  Every segment draws LSNs from one shared
  :class:`LsnSequencer`, so merging segments by LSN reconstructs the
  global append order (the merge is what restart recovery runs over).
* **The cross-shard commit barrier.**  A commit record lands in the
  transaction's *home* segment (the lowest-numbered shard it touched).
  Before that record can become durable, every *other* touched segment
  is flushed — the WAL rule across segments: images in foreign segments
  must be durable no later than the commit record that makes them
  matter.  A crash between those flushes and the home enrollment leaves
  a prefix of segments durable with no commit record anywhere, and
  recovery undoes the transaction atomically from its before images.
* **Per-segment delegation records.**  ``delegate`` writes one
  :class:`~repro.storage.log.DelegateRecord` into each segment holding
  affected updates, restricted to that segment's oids, so every
  segment's incremental attribution index stays self-contained and the
  merged analysis sees the same re-attributions (disjoint oid sets make
  the records commute).

Crash atomicity for a multi-shard transaction therefore reduces to the
classic single-log argument: the commit record (wherever it lives) is
the commit point; its durability implies durability of all images that
precede it in global LSN order.
"""

from __future__ import annotations

import threading
from operator import attrgetter

from repro.common.ids import ObjectId
from repro.core.sharding import ShardRouter, default_shard_count
from repro.storage.log import FlushCoalescer, MemoryLogDevice, WriteAheadLog
from repro.storage.recovery import RecoveryManager
from repro.storage.store import LoggedUndo, StorageManager


class LsnSequencer:
    """A shared monotone LSN counter for all segments of one log."""

    def __init__(self, start=1):
        self._lock = threading.Lock()
        self._next = start

    def next_value(self):
        with self._lock:
            value = self._next
            self._next += 1
            return value

    def advance_to(self, value):
        """Never hand out an LSN below ``value`` (segment resync)."""
        with self._lock:
            self._next = max(self._next, value)

    @property
    def last_value(self):
        """The most recently issued LSN (0 before the first)."""
        with self._lock:
            return self._next - 1


class SegmentedLog:
    """The single-log view over all segments (merge by global LSN).

    Presents exactly the :class:`~repro.storage.log.WriteAheadLog`
    surface the transaction manager and :class:`RecoveryManager`
    consume: ``records``, ``updates_by``, ``max_tid_value``,
    ``last_lsn_value``, ``flush``, the restart readers
    (``drop_volatile``, ``analysis``, ``redo_records``, ``redo_lsn``,
    ``restart_from``), and undo's writers ``log_compensation`` /
    ``log_abort`` (routed to the owning segment).

    Each segment keeps its own restart hint beside its own marker, but
    the restart *point* is one LSN for the whole log, taken by all
    segments together (:meth:`move_restart_point`) and never given up:
    a transaction's commit record and its images may lie in different
    segments, and a commit record dropped from one while another still
    holds an image would turn a winner into a loser.  A torn page voids
    its own segment's mark, whose redo then reads that prefix too.  (A
    segment's hint, on a memory device, cannot fail its check at open.)
    """

    def __init__(self, storage):
        self._storage = storage
        # Observability hook parity with WriteAheadLog: appends are
        # counted per segment; recovery's gauges go through this one.
        self.metrics = None

    @property
    def segments(self):
        return [shard.log for shard in self._storage.shards]

    def _merged(self, per_segment):
        """``per_segment(segment)``'s records, in global LSN order."""
        merged = [
            record
            for segment in self.segments
            for record in per_segment(segment)
        ]
        merged.sort(key=attrgetter("lsn"))
        return merged

    def records(self, durable_only=False):
        """All segments' records merged into global LSN order."""
        return self._merged(lambda segment: segment.records(durable_only))

    def updates_by(self, tid):
        """Attributed updates across segments, in global LSN order."""
        return self._merged(lambda segment: segment.updates_by(tid))

    def max_tid_value(self):
        return max(segment.max_tid_value() for segment in self.segments)

    def __len__(self):
        return sum(len(segment) for segment in self.segments)

    def drop_volatile(self):
        """Restart's first act, per segment."""
        for segment in self.segments:
            segment.drop_volatile()

    def analysis(self):
        """The segments' analyses merged: sets united, votes by LSN."""
        winners, finished, prepares, writers = set(), set(), [], set()
        for segment in self.segments:
            won, done, voted, wrote = segment.analysis()
            winners |= won
            finished |= done
            prepares += voted
            writers |= wrote
        prepares.sort(key=attrgetter("lsn"))
        return winners, finished, prepares, writers

    @property
    def redo_lsn(self):
        """The lowest segment mark (each segment redoes from its own)."""
        return min(segment.redo_lsn for segment in self.segments)

    def redo_records(self):
        """Each segment's newest image per object above its own
        checkpoint mark (its whole history under a void one), merged,
        and how many older ones they stand for in all: an object's
        images all lie in its owning segment, so newest there is
        newest."""
        parts = [segment.redo_records() for segment in self.segments]
        records = [record for newest, __ in parts for record in newest]
        records.sort(key=attrgetter("lsn"))
        return records, sum(superseded for __, superseded in parts)

    @property
    def restart_from(self):
        """The lowest LSN any segment's tail starts at; 0 = a whole one."""
        return min(segment.restart_from for segment in self.segments)

    def move_restart_point(self, markers):
        """After a checkpoint wrote ``markers`` (one per segment): open
        every segment at the lowest LSN any of them still needs, with
        outcomes counted wherever they were logged.  Nothing moves
        unless every marker is durable, so the hints move together —
        and no crash falls between them: a segment's device is a memory
        device, whose hint is set without an I/O step.  (Segments on
        devices that could lose one hint and keep another would have to
        record the point itself and open at the highest.)"""
        winners, finished, __, __ = self.analysis()
        done = winners | finished
        point = min(
            segment.restart_point(marker, done)
            for segment, marker in zip(self.segments, markers)
        )
        for segment in self.segments:
            segment.open_at(point)

    @property
    def last_lsn_value(self):
        """The most recent LSN issued anywhere (savepoint tokens)."""
        return self._storage.sequencer.last_value

    @property
    def flush_count(self):
        return sum(segment.flush_count for segment in self.segments)

    @property
    def group_commit(self):
        """The home-segment coalescers, exposed as a list (telemetry)."""
        return [segment.group_commit for segment in self.segments]

    def log_compensation(self, tid, oid, after):
        """Compensation writer: routed to the object's segment."""
        return self._storage.segment_of(oid).log_compensation(
            tid, oid, after
        )

    def log_abort(self, tid):
        """Abort-completion record (recovery's undo epilogue)."""
        return self._storage.shards[0].log.log_abort(tid)

    def log_workflow(self, wid, kind, payload=b"", tid=None):
        """Workflow transition record, routed to segment 0.

        Workflow records have no object footprint, so they need a fixed
        home; segment 0 plays the same role it does for abort records.
        The segment writer force-flushes, which is what makes the
        attempt-before-commit ordering hold across segments: the attempt
        is durable in segment 0 before the step's commit record can even
        be appended to its home segment.
        """
        return self._storage.shards[0].log.log_workflow(
            wid, kind, payload=payload, tid=tid
        )

    def flush(self):
        for segment in self.segments:
            segment.flush()


def _clone_group_commit(group_commit, injector):
    """One coalescer per shard from an int / prototype / None policy."""
    if group_commit is None:
        return None
    if isinstance(group_commit, int):
        return FlushCoalescer(max_commits=group_commit, injector=injector)
    return FlushCoalescer(
        max_commits=group_commit.max_commits,
        max_bytes=group_commit.max_bytes,
        injector=injector,
        health=group_commit.health,
    )


class ShardedStorageManager(LoggedUndo):
    """A :class:`~repro.storage.store.StorageManager`-shaped facade over
    N per-shard storage stacks with a segmented WAL.

    Object ids are allocated from one global counter (so the sharded
    engine and the single-manager oracle create identical oids), while
    placement follows the router.  ``log_commit`` implements the
    cross-shard barrier described in the module docstring.
    """

    def __init__(
        self,
        n_shards=None,
        group_commit=None,
        injector=None,
        capacity=256,
    ):
        if n_shards is None:
            n_shards = default_shard_count()
        self.injector = injector
        self.sequencer = LsnSequencer()
        self.router = ShardRouter(n_shards)
        self.shards = []
        for index in range(n_shards):
            segment = WriteAheadLog(
                MemoryLogDevice(injector=injector),
                group_commit=_clone_group_commit(group_commit, injector),
                sequencer=self.sequencer,
            )
            self.shards.append(
                StorageManager(
                    log=segment, injector=injector, capacity=capacity
                )
            )
        self.log = SegmentedLog(self)
        self._oid_lock = threading.Lock()
        self._next_oid = 1
        # Which shards each live transaction has logged updates into —
        # the input to the commit barrier.  Guarded by its own lock:
        # writers touch it from shard-latched object ops, the barrier
        # from the mutex-holding commit path.
        self._footprints = {}
        self._footprint_lock = threading.Lock()
        self._quarantine = None
        self._restore_from_segments()

    @property
    def n_shards(self):
        return len(self.shards)

    def segment_of(self, oid):
        return self.shards[self.router.shard_of(oid)].log

    def _note_touch(self, tid, shard):
        with self._footprint_lock:
            self._footprints.setdefault(tid, set()).add(shard)

    def footprint_of(self, tid):
        """Shards ``tid`` has logged updates into (tests and telemetry)."""
        with self._footprint_lock:
            return set(self._footprints.get(tid, ()))

    # -- object operations -------------------------------------------------

    def allocate_object(self, name=""):
        """Reserve the next globally sequential oid and place it.

        Split from :meth:`create_allocated` so the sharded manager can
        learn the home shard — and take its latch — before any shard
        state is touched.  Object ids stay identical to the
        single-manager oracle's because allocation is one global counter.
        """
        with self._oid_lock:
            oid = ObjectId(self._next_oid, name=name)
            self._next_oid += 1
            shard = self.router.place(oid, name=name)
        return oid, shard

    def create_allocated(self, tid, oid, shard, value, name=""):
        """Materialize a pre-allocated object on its home shard
        (logged before the page is touched, as in
        :meth:`StorageManager.create_object`)."""
        target = self.shards[shard]
        target.log.log_update(tid, oid, None, value)
        target.objects.create(value, name=name, oid=oid)
        self._note_touch(tid, shard)
        return oid

    def create_object(self, tid, value, name=""):
        oid, shard = self.allocate_object(name=name)
        return self.create_allocated(tid, oid, shard, value, name=name)

    def read_object(self, tid, oid):
        return self.shards[self.router.shard_of(oid)].read_object(tid, oid)

    def write_object(self, tid, oid, value):
        shard = self.router.shard_of(oid)
        self.shards[shard].write_object(tid, oid, value)
        self._note_touch(tid, shard)

    def delete_object(self, tid, oid):
        shard = self.router.shard_of(oid)
        self.shards[shard].delete_object(tid, oid)
        self._note_touch(tid, shard)

    # -- transaction-manager hooks -----------------------------------------

    def install(self, oid, image):
        self.shards[self.router.shard_of(oid)].objects.install(oid, image)

    def _home_and_touched(self, tid, group=()):
        with self._footprint_lock:
            touched = set()
            for member in {tid, *group}:
                touched |= self._footprints.get(member, set())
        home = min(touched) if touched else 0
        return home, touched

    def log_commit(self, tid, group=()):
        """The cross-shard barrier + home-segment (possibly group) commit.

        Foreign touched segments flush *eagerly* — their images must be
        durable no later than the commit record.  The home segment's
        commit record then enrolls in that shard's coalescer, so
        single-shard transactions keep pure per-shard group commit and
        only multi-shard transactions pay the barrier.
        """
        home, touched = self._home_and_touched(tid, group)
        for shard in sorted(touched):
            if shard != home:
                self.shards[shard].log.flush()
        record = self.shards[home].log.log_commit(tid, group=group)
        self._forget_footprints(tid, group)
        return record

    def _forget_footprints(self, tid, group=()):
        with self._footprint_lock:
            for member in {tid, *group}:
                self._footprints.pop(member, None)

    def log_abort(self, tid):
        home, __ = self._home_and_touched(tid)
        record = self.shards[home].log.log_abort(tid)
        self._forget_footprints(tid)
        return record

    def log_delegate(self, tid, delegatee, oids):
        """One delegate record per touched segment, that segment's oids."""
        by_shard = {}
        for oid in oids:
            by_shard.setdefault(self.router.shard_of(oid), []).append(oid)
        records = []
        for shard in sorted(by_shard):
            records.append(
                self.shards[shard].log.log_delegate(
                    tid, delegatee, by_shard[shard]
                )
            )
            self._note_touch(delegatee, shard)
        return records

    def log_prepare(self, tid, group=(), gid=0, coordinator="", sites=()):
        """Vote durability across segments: flush all touched, then the
        force-logged prepare record in the home segment."""
        home, touched = self._home_and_touched(tid, group)
        for shard in sorted(touched):
            if shard != home:
                self.shards[shard].log.flush()
        return self.shards[home].log.log_prepare(
            tid, group=group, gid=gid, coordinator=coordinator, sites=sites
        )

    def log_decision(self, tid, gid, verdict, group=(), participants=()):
        home, touched = self._home_and_touched(tid, group)
        for shard in sorted(touched):
            if shard != home:
                self.shards[shard].log.flush()
        record = self.shards[home].log.log_decision(
            tid, gid, verdict, group=group, participants=participants
        )
        if verdict == "commit":
            self._forget_footprints(tid, group)
        return record

    def log_workflow(self, wid, kind, payload=b"", tid=None):
        """Force-log a workflow transition (segment 0, always flushed)."""
        return self.log.log_workflow(wid, kind, payload=payload, tid=tid)

    # -- durability control ------------------------------------------------

    def sync_log(self):
        for shard in self.shards:
            shard.log.flush()

    def checkpoint(self, active=(), truncate=False):
        """Flush every pool, then one marker per segment, each carrying
        that segment's own redo mark (read before any flush, as in
        :meth:`StorageManager.checkpoint`).  No log is truncated before
        every pool is flushed: a cross-shard winner's commit record may
        live in another segment than its images."""
        marks = [shard.log.last_lsn for shard in self.shards]
        for shard in self.shards:
            shard.pool.flush_all()
        if truncate and not active:
            for shard in self.shards:
                shard.log.truncate()
        markers = [
            shard.log.log_checkpoint(active, mark)
            for shard, mark in zip(self.shards, marks)
        ]
        self.log.move_restart_point(markers)
        return markers[0]

    def crash(self):
        """Crash every shard: volatile pages and unflushed records gone."""
        for shard in self.shards:
            shard.crash()
        with self._footprint_lock:
            self._footprints.clear()

    def recover(self):
        """Segmented restart recovery.

        Rebuild each shard's object table, derive the oid → shard
        directory from the segments (images always land in the owning
        segment) into the router, then run the standard repeat-history
        + undo-losers pass over the LSN-merged view, installing through
        this facade and so through the router.
        """
        for shard in self.shards:
            shard.objects.refresh_table()
        directory = self._directory_from_segments()
        self.router.clear()
        for oid_value, shard in directory.items():
            self.router.place_at(ObjectId(oid_value), shard)
        report = RecoveryManager(self.log, self).recover()
        self._restore_oid_counter()
        quarantine = self._quarantine
        if quarantine is not None:
            for shard in self.shards:
                for page_id in shard.objects.damaged_pages:
                    quarantine.note_damaged_page(page_id)
        return report

    def _directory_from_segments(self):
        """oid value → shard: the objects in each shard's table (the
        last checkpoint flushed them there) and the oids its segment's
        tail has images of, or its redo — under a void mark, the prefix
        too (first segment wins, as in a scan of the segments in
        order).  An object in none was deleted below the restart point."""
        directory = {}
        for index, shard in enumerate(self.shards):
            redo, __ = shard.log.redo_records()
            for oid_value in shard.log.image_oids().union(
                shard.objects.object_ids(), (r.oid for r in redo)
            ):
                directory.setdefault(oid_value, index)
        return directory

    def _restore_from_segments(self):
        """Resume oid allocation and placement from pre-existing segments."""
        directory = self._directory_from_segments()
        for oid_value, shard in directory.items():
            self.router.place_at(ObjectId(oid_value), shard)
        self._restore_oid_counter()

    def _restore_oid_counter(self):
        """:meth:`ObjectStore.retire_oids`' rule for the global counter:
        the router holds every oid a segment's tail names."""
        with self._oid_lock:
            high = 0
            for shard in self.shards:
                high = max(high, shard.objects._next_oid_value - 1)
            for oid_value in self.router.snapshot():
                high = max(high, oid_value)
            self._next_oid = max(self._next_oid, high + 1)

    def close(self):
        for shard in self.shards:
            shard.close()

    # -- resilience hooks --------------------------------------------------

    @property
    def quarantine(self):
        return self._quarantine

    @quarantine.setter
    def quarantine(self, value):
        self._quarantine = value
        for shard in self.shards:
            shard.quarantine = value

    # -- introspection -----------------------------------------------------

    def object_state(self):
        """Merged {oid value: bytes} across shards (chaos oracles)."""
        state = {}
        for shard in self.shards:
            for oid_value in list(shard.objects._locations):
                if oid_value >> 62:
                    continue  # chunk slots are internal
                state[oid_value] = shard.objects.read(ObjectId(oid_value))
        return state

    def segment_stats(self):
        """Per-shard WAL/pool stats rows (obs collectors, benches)."""
        rows = []
        for index, shard in enumerate(self.shards):
            coalescer = shard.log.group_commit
            rows.append(
                {
                    "shard": index,
                    "appends": shard.log.base + len(shard.log),
                    "flushes": shard.log.flush_count,
                    "wal_forces": shard.pool.wal_forces,
                    "batches_flushed": (
                        coalescer.batches_flushed if coalescer else 0
                    ),
                    "enrolled_commits": (
                        coalescer.enrolled_total if coalescer else 0
                    ),
                    "objects": len(shard.objects._locations),
                }
            )
        return rows
