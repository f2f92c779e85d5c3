"""What a storage manager of several shards adds to one of one.

:class:`~repro.storage.store.StorageManager` gives each shard its own
stack — disk, buffer pool, object store, and a
:class:`~repro.storage.log.WriteAheadLog` *segment* with its own
:class:`~repro.storage.log.FlushCoalescer`, so group commit proceeds in
parallel per shard.  What knits the segments back into one log:

* **Placement**: :class:`ShardRouter` decides once, at creation, which
  shard holds an object, and remembers it.
* **Global LSNs**: every segment draws LSNs from one
  :class:`LsnSequencer`, so a merge by LSN (:class:`SegmentedLog`, what
  restart runs over) is the global append order.
* **The commit barrier** (the facade's): a commit record lands in the
  *home* segment, the lowest shard the transaction touched, after every
  other touched segment is flushed — images in foreign segments are
  durable no later than the record that makes them matter.  So the
  commit record, wherever it lives, is the commit point, as in one log.
* **Per-segment delegation records**, each with its segment's oids: every
  segment's attribution index stays self-contained.
* **One restart point** for the whole log (:func:`move_restart_point`,
  :func:`open_at_highest`).
"""

from __future__ import annotations

import threading
import zlib
from operator import attrgetter


def stable_hash(key):
    """A process-independent hash for routing keys (CRC32 of the text):
    ``hash(str)`` is salted per process, and placement must not differ
    between a run and its replay."""
    return zlib.crc32(str(key).encode("utf-8"))


class ShardRouter:
    """Maps objects (and routing keys) to shard indexes.

    Placement happens once, at creation — named objects go to
    ``crc32(name) % n``, unnamed ones to ``oid % n`` — and is remembered
    by oid value, so later touches route without rehashing.
    """

    def __init__(self, n_shards):
        if n_shards < 1:
            raise ValueError(f"need at least one shard, got {n_shards}")
        self.n_shards = n_shards
        self._directory = {}  # oid value -> shard index
        # Placement epoch, bumped when shard ownership changes (cluster
        # churn): an owner rejects a route resolved under an older one.
        self.epoch = 0

    def bump_epoch(self):
        """A new placement generation; returns the new epoch."""
        self.epoch += 1
        return self.epoch

    def shard_for_key(self, key):
        """The home shard for a routing key (transaction or object name)."""
        return stable_hash(key) % self.n_shards

    def place(self, oid, name=""):
        """Decide and remember the shard for a newly created object."""
        if name:
            shard = self.shard_for_key(name)
        else:
            shard = oid % self.n_shards
        self._directory[oid] = shard
        return shard

    def rebuild(self, directory):
        """Replace every placement with ``directory`` (restart)."""
        self._directory = directory

    def shard_of(self, oid):
        """The shard an object lives on; an oid never placed (a lock on
        one not yet created) hashes as :meth:`place` would."""
        shard = self._directory.get(oid)
        if shard is None:
            if oid.name:
                shard = self.shard_for_key(oid.name)
            else:
                shard = oid % self.n_shards
        return shard

    def snapshot(self):
        """Copy of the directory (tests and recovery verification)."""
        return dict(self._directory)


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


def _analysis(segments):
    """The segments' analyses merged: sets united, votes by LSN."""
    winners, finished, prepares, writers = set(), set(), [], set()
    for segment in segments:
        won, done, voted, wrote = segment.analysis()
        winners |= won
        finished |= done
        prepares += voted
        writers |= wrote
    prepares.sort(key=attrgetter("lsn"))
    return winners, finished, prepares, writers


def move_restart_point(segments, markers):
    """After a checkpoint wrote ``markers`` (one per segment): open every
    segment at the lowest LSN any of them still needs, outcomes counted
    wherever they were logged.  A commit record and its images may lie
    in different segments; cut at points of their own, one segment
    could drop it while another kept an image, and restart would undo a
    winner.  Nothing moves unless every marker is durable."""
    finished = frozenset()
    if len(segments) > 1:
        winners, done, __, __ = _analysis(segments)
        finished = winners | done
    point = min(
        segment.restart_point(marker, finished)
        for segment, marker in zip(segments, markers)
    )
    for segment in segments:
        segment.open_at(point)


def open_at_highest(segments):
    """At open: every segment at the highest restart point any hint
    names.  A power cut between two file devices' hints leaves some
    segments at the new point and some at the old, and one left below
    would show a winner's images whose commit record another dropped;
    every hint is set after every marker is durable, so the highest
    point is one the whole log agreed on."""
    point = max(segment.device.point for segment in segments)
    for segment in segments:
        segment.open_at(point)


class SegmentedLog:
    """The single-log view over all segments (merge by global LSN): the
    :class:`~repro.storage.log.WriteAheadLog` surface the transaction
    manager and :class:`~repro.storage.recovery.RecoveryManager` read,
    and undo's writers ``log_compensation`` / ``log_abort``, routed to a
    segment."""

    def __init__(self, storage):
        self._storage = storage
        self.metrics = None  # recovery's gauges; appends count per segment

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

    def max_wid_value(self):
        return max(segment.max_wid_value() for segment in self.segments)

    def workflows(self):
        """Every segment's workflow records, merged, and which tids they
        name committed in any segment (a step commits in its home)."""
        records = self._merged(lambda segment: segment.workflows()[0])
        named = {record.tid for record in records if record.tid}
        return records, set().union(
            *(segment.committed(named) for segment in self.segments)
        )

    def __len__(self):
        return sum(len(segment) for segment in self.segments)

    def drop_volatile(self):
        """Restart's first act, per segment."""
        for segment in self.segments:
            segment.drop_volatile()

    def analysis(self):
        return _analysis(self.segments)

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

    @property
    def last_lsn_value(self):
        """The most recent LSN issued anywhere (savepoint tokens)."""
        return self._storage.sequencer.last_value

    @property
    def flush_count(self):
        return sum(segment.flush_count for segment in self.segments)

    def log_compensation(self, tid, oid, after):
        """Compensation writer: routed to the object's segment."""
        storage = self._storage
        segment = storage.shards[storage.router.shard_of(oid)].log
        return segment.log_compensation(tid, oid, after)

    def log_abort(self, tid):
        """Abort-completion record (recovery's undo epilogue)."""
        return self._storage.shards[0].log.log_abort(tid)

    def flush(self):
        """Highest segment first: a record in a lower one — an outcome,
        in its home segment — may answer for images in higher ones."""
        for segment in reversed(self.segments):
            segment.flush()
