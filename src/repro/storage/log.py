"""The write-ahead log.

The section 4.2 ``write`` algorithm logs the *before image* of an object,
performs the write, then logs the *after image*; ``commit`` places a commit
record; ``abort`` scans the log installing before images.  Delegation moves
undo responsibility between transactions, so the log also carries delegate
records — recovery uses them to attribute each update to the transaction
that was responsible for it at the end of the log.

Records are encoded to a compact length-prefixed binary form and can be
persisted to a file (:class:`FileLogDevice`) or kept in memory
(:class:`MemoryLogDevice`).  Either way records round-trip bytes, so crash
simulation replays exactly what a real restart would see.
"""

from __future__ import annotations

import os
import struct
import threading
from bisect import bisect_right
from dataclasses import dataclass

from repro.common.errors import StorageError, TransientIOError
from repro.common.ids import Lsn, ObjectId, Tid

_HEADER = struct.Struct("<BQQ")  # record type, lsn, tid
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")

_TYPE_BEFORE = 1
_TYPE_AFTER = 2
_TYPE_COMMIT = 3
_TYPE_ABORT = 4
_TYPE_DELEGATE = 5
_TYPE_CHECKPOINT = 6
_TYPE_PREPARE = 7
_TYPE_DECISION = 8
_TYPE_WORKFLOW = 9
_TYPE_TAKEOVER = 10

_ABSENT = 0xFFFFFFFF  # length marker: image of a not-yet-existing object


@dataclass(frozen=True)
class LogRecord:
    """Base class for all log records."""

    lsn: Lsn
    tid: Tid


@dataclass(frozen=True)
class BeforeImageRecord(LogRecord):
    """Image of ``oid`` before an update by ``tid``.

    ``image is None`` means the object did not exist — the update is a
    creation, and its undo is a deletion.
    """

    oid: ObjectId = None
    image: bytes = None


@dataclass(frozen=True)
class AfterImageRecord(LogRecord):
    """Image of ``oid`` after an update by ``tid``."""

    oid: ObjectId = None
    image: bytes = None


@dataclass(frozen=True)
class CommitRecord(LogRecord):
    """Commitment of ``tid`` and (for group commit) its group members."""

    group: tuple = ()

    def committed_tids(self):
        """All tids committed by this record (the writer plus its group)."""
        return {self.tid, *self.group}


@dataclass(frozen=True)
class AbortRecord(LogRecord):
    """Abort completion of ``tid`` (undo already applied and logged)."""


@dataclass(frozen=True)
class DelegateRecord(LogRecord):
    """``tid`` delegated responsibility for ``oids`` to ``delegatee``."""

    delegatee: Tid = None
    oids: tuple = ()


@dataclass(frozen=True)
class CheckpointRecord(LogRecord):
    """A checkpoint marker: the then-active transactions and the redo mark.

    Written *after* the buffer pool was flushed, carrying the log's last
    LSN read *before* that flush began.  A durable marker therefore
    means every after image at or below ``redo_lsn`` is in the page
    file, and restart redo may begin above it.  ``0`` (also what a
    record written before the field existed decodes to) means "from the
    start of the log".
    """

    active: tuple = ()
    redo_lsn: int = 0


@dataclass(frozen=True)
class PrepareRecord(LogRecord):
    """``tid`` (plus its local GC ``group``) voted commit in global ``gid``.

    The presumed-abort vote record: force-written *before* the
    participant's VOTE-COMMIT message leaves the site.  After a crash,
    a prepared-but-undecided transaction is *in doubt* — recovery keeps
    its updates and the site asks ``coordinator`` for the verdict.

    ``sites`` records the full group membership (every participant site
    plus the coordinator) so that an in-doubt participant can run the
    takeover poll when the coordinator is permanently gone — without it,
    a restarted site would only know whom to *ask*, not whom to *become*.
    """

    group: tuple = ()
    gid: int = 0
    coordinator: str = ""
    sites: tuple = ()

    def prepared_tids(self):
        """All tids covered by this vote (the writer plus its group)."""
        return {self.tid, *self.group}


@dataclass(frozen=True)
class DecisionRecord(LogRecord):
    """The coordinator's commit decision for global transaction ``gid``.

    Force-written before any COMMIT message is sent: this record *is*
    the global commit point.  ``tid``/``group`` name the coordinator's
    own local members (recovery treats them as winners), and
    ``participants`` names the remote sites to re-notify after a
    coordinator restart.  Presumed abort means abort decisions are never
    force-logged — no record, no decision, verdict abort.
    """

    gid: int = 0
    verdict: str = "commit"
    group: tuple = ()
    participants: tuple = ()

    def decided_tids(self):
        """The coordinator-local tids this decision commits."""
        return {self.tid, *self.group}


@dataclass(frozen=True)
class WorkflowRecord(LogRecord):
    """One durable workflow-orchestration state transition.

    ``wid`` names the workflow execution, ``kind`` the transition (the
    vocabulary lives in :mod:`repro.workflow.records`), ``payload`` an
    opaque encoded body.  ``tid`` is the step transaction the transition
    concerns, or ``Tid(0)`` for transitions that involve none.

    Workflow records are *orchestration* state: recovery's redo/undo and
    the attribution index ignore them entirely (they carry no images),
    and the workflow engine folds them back into
    ``WorkflowExecution`` state after a restart.  They are always
    force-flushed — the engine's resume protocol depends on every logged
    transition being durable before the action it describes.
    """

    wid: int = 0
    kind: str = ""
    payload: bytes = b""


@dataclass(frozen=True)
class TakeoverRecord(LogRecord):
    """A recovery coordinator's claim over in-doubt global ``gid``.

    Force-written by the site that takes over a group whose coordinator
    stopped heartbeating, *before* the re-derived decision record.  The
    pair (takeover, decision) makes the handover auditable: the
    ``epoch`` is the fencing epoch the new coordinator will stamp on
    every message it sends for the group, and ``old_coordinator`` names
    the site being fenced out.  ``votes`` snapshots the durable
    prepare/decision evidence the taker collected (one ``site:verdict``
    string per polled participant) so a post-mortem can re-check the
    presumed-abort derivation without the other sites' logs.
    """

    gid: int = 0
    epoch: int = 0
    old_coordinator: str = ""
    verdict: str = "abort"
    votes: tuple = ()


def _pack_image(image):
    if image is None:
        return _U32.pack(_ABSENT)
    return _U32.pack(len(image)) + image


def _unpack_image(raw, offset):
    (length,) = _U32.unpack_from(raw, offset)
    offset += _U32.size
    if length == _ABSENT:
        return None, offset
    return bytes(raw[offset : offset + length]), offset + length


def _pack_str(text):
    encoded = text.encode("utf-8")
    return _U32.pack(len(encoded)) + encoded


def _unpack_str(raw, offset):
    (length,) = _U32.unpack_from(raw, offset)
    offset += _U32.size
    return bytes(raw[offset : offset + length]).decode("utf-8"), offset + length


def _pack_strs(texts):
    return _U32.pack(len(texts)) + b"".join(_pack_str(t) for t in texts)


def _unpack_strs(raw, offset):
    (count,) = _U32.unpack_from(raw, offset)
    offset += _U32.size
    texts = []
    for __ in range(count):
        text, offset = _unpack_str(raw, offset)
        texts.append(text)
    return tuple(texts), offset


def _pack_tids(tids):
    return _U32.pack(len(tids)) + b"".join(_U64.pack(t.value) for t in tids)


def _unpack_tids(raw, offset):
    (count,) = _U32.unpack_from(raw, offset)
    offset += _U32.size
    tids = []
    for __ in range(count):
        (value,) = _U64.unpack_from(raw, offset)
        offset += _U64.size
        tids.append(Tid(value))
    return tuple(tids), offset


def encode_record(record):
    """Serialize a record to bytes (without the device length prefix)."""
    if isinstance(record, BeforeImageRecord):
        rtype, body = _TYPE_BEFORE, _U64.pack(record.oid.value) + _pack_image(
            record.image
        )
    elif isinstance(record, AfterImageRecord):
        rtype, body = _TYPE_AFTER, _U64.pack(record.oid.value) + _pack_image(
            record.image
        )
    elif isinstance(record, CommitRecord):
        rtype, body = _TYPE_COMMIT, _pack_tids(record.group)
    elif isinstance(record, AbortRecord):
        rtype, body = _TYPE_ABORT, b""
    elif isinstance(record, DelegateRecord):
        body = (
            _U64.pack(record.delegatee.value)
            + _U32.pack(len(record.oids))
            + b"".join(_U64.pack(o.value) for o in record.oids)
        )
        rtype = _TYPE_DELEGATE
    elif isinstance(record, CheckpointRecord):
        body = _pack_tids(record.active) + _U64.pack(record.redo_lsn)
        rtype = _TYPE_CHECKPOINT
    elif isinstance(record, PrepareRecord):
        body = (
            _pack_tids(record.group)
            + _U64.pack(record.gid)
            + _pack_str(record.coordinator)
            + _pack_strs(record.sites)
        )
        rtype = _TYPE_PREPARE
    elif isinstance(record, DecisionRecord):
        body = (
            _U64.pack(record.gid)
            + _pack_str(record.verdict)
            + _pack_tids(record.group)
            + _pack_strs(record.participants)
        )
        rtype = _TYPE_DECISION
    elif isinstance(record, WorkflowRecord):
        body = (
            _U64.pack(record.wid)
            + _pack_str(record.kind)
            + _pack_image(record.payload)
        )
        rtype = _TYPE_WORKFLOW
    elif isinstance(record, TakeoverRecord):
        body = (
            _U64.pack(record.gid)
            + _U64.pack(record.epoch)
            + _pack_str(record.old_coordinator)
            + _pack_str(record.verdict)
            + _pack_strs(record.votes)
        )
        rtype = _TYPE_TAKEOVER
    else:
        raise StorageError(f"unknown record type: {type(record).__name__}")
    return _HEADER.pack(rtype, record.lsn.value, record.tid.value) + body


def decode_record(raw):
    """Reconstruct a record from bytes produced by :func:`encode_record`."""
    rtype, lsn_value, tid_value = _HEADER.unpack_from(raw, 0)
    lsn, tid = Lsn(lsn_value), Tid(tid_value)
    offset = _HEADER.size
    if rtype in (_TYPE_BEFORE, _TYPE_AFTER):
        (oid_value,) = _U64.unpack_from(raw, offset)
        offset += _U64.size
        image, offset = _unpack_image(raw, offset)
        cls = BeforeImageRecord if rtype == _TYPE_BEFORE else AfterImageRecord
        return cls(lsn=lsn, tid=tid, oid=ObjectId(oid_value), image=image)
    if rtype == _TYPE_COMMIT:
        group, offset = _unpack_tids(raw, offset)
        return CommitRecord(lsn=lsn, tid=tid, group=group)
    if rtype == _TYPE_ABORT:
        return AbortRecord(lsn=lsn, tid=tid)
    if rtype == _TYPE_DELEGATE:
        (delegatee_value,) = _U64.unpack_from(raw, offset)
        offset += _U64.size
        (count,) = _U32.unpack_from(raw, offset)
        offset += _U32.size
        oids = []
        for __ in range(count):
            (value,) = _U64.unpack_from(raw, offset)
            offset += _U64.size
            oids.append(ObjectId(value))
        return DelegateRecord(
            lsn=lsn, tid=tid, delegatee=Tid(delegatee_value), oids=tuple(oids)
        )
    if rtype == _TYPE_CHECKPOINT:
        active, offset = _unpack_tids(raw, offset)
        redo_lsn = 0  # a marker from before the field: redo from the start
        if offset < len(raw):
            (redo_lsn,) = _U64.unpack_from(raw, offset)
        return CheckpointRecord(
            lsn=lsn, tid=tid, active=active, redo_lsn=redo_lsn
        )
    if rtype == _TYPE_PREPARE:
        group, offset = _unpack_tids(raw, offset)
        (gid,) = _U64.unpack_from(raw, offset)
        offset += _U64.size
        coordinator, offset = _unpack_str(raw, offset)
        sites, offset = _unpack_strs(raw, offset)
        return PrepareRecord(
            lsn=lsn,
            tid=tid,
            group=group,
            gid=gid,
            coordinator=coordinator,
            sites=sites,
        )
    if rtype == _TYPE_DECISION:
        (gid,) = _U64.unpack_from(raw, offset)
        offset += _U64.size
        verdict, offset = _unpack_str(raw, offset)
        group, offset = _unpack_tids(raw, offset)
        participants, offset = _unpack_strs(raw, offset)
        return DecisionRecord(
            lsn=lsn,
            tid=tid,
            gid=gid,
            verdict=verdict,
            group=group,
            participants=participants,
        )
    if rtype == _TYPE_WORKFLOW:
        (wid,) = _U64.unpack_from(raw, offset)
        offset += _U64.size
        kind, offset = _unpack_str(raw, offset)
        payload, offset = _unpack_image(raw, offset)
        return WorkflowRecord(
            lsn=lsn, tid=tid, wid=wid, kind=kind, payload=payload
        )
    if rtype == _TYPE_TAKEOVER:
        (gid,) = _U64.unpack_from(raw, offset)
        offset += _U64.size
        (epoch,) = _U64.unpack_from(raw, offset)
        offset += _U64.size
        old_coordinator, offset = _unpack_str(raw, offset)
        verdict, offset = _unpack_str(raw, offset)
        votes, offset = _unpack_strs(raw, offset)
        return TakeoverRecord(
            lsn=lsn,
            tid=tid,
            gid=gid,
            epoch=epoch,
            old_coordinator=old_coordinator,
            verdict=verdict,
            votes=votes,
        )
    raise StorageError(f"unknown record type byte: {rtype}")


class MemoryLogDevice:
    """Log persistence in memory: a list of encoded records.

    A chaos ``injector`` (:mod:`repro.chaos.faults`) numbers every append
    and flush as an I/O step; the flush step can be *lied about* (lost
    fsync), leaving ``_durable_count`` behind while the caller believes
    the records are safe.
    """

    def __init__(self, injector=None):
        self.injector = injector
        self._records = []
        self._durable_count = 0

    def append(self, raw):
        if self.injector is None:
            self._records.append(bytes(raw))
        else:
            self.injector.log_append(
                len(raw), lambda: self._records.append(bytes(raw))
            )

    def flush(self):
        if self.injector is None:
            self._durable_count = len(self._records)
        else:
            self.injector.log_flush(self._advance_durable)

    def _advance_durable(self):
        self._durable_count = len(self._records)

    def durable_count(self):
        """How many records a restart would actually see (harness peek)."""
        return self._durable_count

    def snapshot(self):
        """Capture the complete device state (for reference replays)."""
        return list(self._records), self._durable_count

    def restore(self, snapshot):
        """Reset the device to a previously captured snapshot."""
        self._records = list(snapshot[0])
        self._durable_count = snapshot[1]

    def read_all(self, durable_only=False):
        """Iterate over encoded records, optionally only the flushed ones."""
        upto = self._durable_count if durable_only else len(self._records)
        return iter(self._records[:upto])

    def crash(self):
        """Drop every record not yet flushed (crash simulation)."""
        del self._records[self._durable_count :]

    def reset(self):
        """Discard the whole log (sharp-checkpoint truncation)."""
        self._records.clear()
        self._durable_count = 0

    def close(self):
        """Nothing to release for the in-memory device."""


class FileLogDevice:
    """Log persistence in a file of length-prefixed records.

    The device knows what is durable: the size and record count of the
    file at its last real ``fsync`` (everything found at open counts —
    it is what survived).  ``read_all(durable_only=True)`` stops there,
    :meth:`crash` cuts the file back to it, and :meth:`durable_count`
    reports it, exactly as :class:`MemoryLogDevice` does.

    Opening does not walk the file.  ``_count`` / ``_durable_count``
    count records appended / synced *since open*; how many were
    ``_found`` at open is learnt from the first complete
    :meth:`read_all` — the pass the log's ``resync`` makes anyway.
    """

    def __init__(self, path, injector=None):
        self.path = str(path)
        self.injector = injector
        mode = "r+b" if os.path.exists(self.path) else "w+b"
        self._file = open(self.path, mode)
        self._file.seek(0, os.SEEK_END)
        self._durable_size = self._file.tell()
        self._found = None if self._durable_size else 0
        self._count = self._durable_count = 0

    def append(self, raw):
        def do_append():
            self._file.write(_U32.pack(len(raw)))
            self._file.write(raw)
            self._count += 1

        if self.injector is None:
            do_append()
        else:
            self.injector.log_append(len(raw), do_append)

    def flush(self):
        # Runs only when the sync really happens: an injector that lies
        # about (or fails) the flush leaves the durable marks behind.
        def do_flush():
            self._file.flush()
            os.fsync(self._file.fileno())
            self._durable_size = self._file.tell()
            self._durable_count = self._count

        if self.injector is None:
            do_flush()
        else:
            self.injector.log_flush(do_flush)

    def durable_count(self):
        """How many records a restart would actually see."""
        if self._found is None:
            for __ in self.read_all():
                pass
        return self._found + self._durable_count

    def read_all(self, durable_only=False):
        """Iterate over encoded records, optionally only the synced ones."""
        self._file.flush()
        limit = self._durable_size if durable_only else None
        with open(self.path, "rb") as reader:
            offset = seen = 0
            while True:
                prefix = reader.read(_U32.size)
                if len(prefix) < _U32.size:
                    break
                (length,) = _U32.unpack(prefix)
                offset += _U32.size + length
                if limit is not None and offset > limit:
                    return
                raw = reader.read(length)
                if len(raw) < length:
                    break  # torn tail write: ignore, as a real restart would
                seen += 1
                yield raw
        if self._found is None and limit is None:
            self._found = seen - self._count

    def crash(self):
        """Drop every byte not yet synced (crash simulation)."""
        self._file.truncate(self._durable_size)
        self._file.seek(self._durable_size)
        self._count = self._durable_count

    def reset(self):
        """Discard the whole log (sharp-checkpoint truncation)."""
        self._file.seek(0)
        self._file.truncate()
        self._file.flush()
        os.fsync(self._file.fileno())
        self._durable_size = 0
        self._found = self._count = self._durable_count = 0

    def close(self):
        self._file.close()


class FlushCoalescer:
    """Group-commit policy: amortise one device flush over many commits.

    A commit record *enrolls* instead of forcing an immediate ``fsync``;
    the batch is flushed once it holds ``max_commits`` enrolled commits
    or once ``max_bytes`` of log have accumulated since the last flush
    (whichever bound trips first).  Between the enrollment and the batch
    flush the commit is *not durable*: a crash in that window loses it,
    exactly as if the commit had never been requested — which is the
    standard group-commit trade (§3.1.2's GC dependency makes grouped
    durability points first-class; the coalescer is the storage-side
    analogue).

    Any explicit :meth:`WriteAheadLog.flush` (checkpoint, close, a
    caller that needs durability *now*) drains the batch.
    """

    def __init__(self, max_commits=8, max_bytes=64 * 1024, injector=None,
                 health=None):
        if max_commits < 1:
            raise StorageError("group-commit batch needs max_commits >= 1")
        if max_bytes < 1:
            raise StorageError("group-commit batch needs max_bytes >= 1")
        self.max_commits = max_commits
        self.max_bytes = max_bytes
        self.injector = injector
        # Degradation breaker (repro.resilience.FlushHealth): while it
        # reports ``degraded`` the coalescer stops batching and every
        # commit flushes synchronously.  ``None`` = always batch.
        self.health = health
        self.pending_commits = 0
        self.pending_bytes = 0
        self.enrolled_total = 0
        self.batches_flushed = 0

    def note_append(self, nbytes):
        """Account appended-but-unflushed log bytes (the size bound)."""
        self.pending_bytes += nbytes

    def enroll_commit(self):
        """Enroll one commit; returns True when the batch must flush.

        The enrollment boundary is a numbered chaos step: between the
        commit record's append and this point the commit exists only in
        volatile state, and a crash here exercises exactly the
        group-commit deferral window.
        """
        if self.injector is not None:
            self.injector.gc_enroll(self.pending_commits)
        self.pending_commits += 1
        self.enrolled_total += 1
        if self.health is not None and self.health.degraded:
            # Degraded mode: the device has been failing (or lying); stop
            # widening the volatile window and flush this commit now.
            return True
        return (
            self.pending_commits >= self.max_commits
            or self.pending_bytes >= self.max_bytes
        )

    def note_flushed(self):
        """The device flushed: the batch (if any) is durable, reset it."""
        if self.pending_commits or self.pending_bytes:
            self.batches_flushed += 1
        self.pending_commits = 0
        self.pending_bytes = 0

    def abandon(self):
        """Drop the pending batch without flushing.

        Called on crash/resync: the enrolled-but-unflushed commits are
        gone from the device, so there is nothing left to make durable.
        """
        self.pending_commits = 0
        self.pending_bytes = 0


class WriteAheadLog:
    """Appends records, assigns LSNs, and replays for abort/recovery.

    Besides the decoded-record cache, the log maintains an *attribution
    index*: per-tid lists of before-image records with delegation
    re-attribution applied as records are appended, plus what restart
    analysis needs — who committed, who finished aborting, who voted,
    who wrote, and the last checkpoint's redo mark.  ``updates_by``,
    ``max_tid_value`` and :meth:`analysis` are probes on that index — no
    full-log scan on abort, delegation, or restart (the scan versions
    survive as test oracles).

    ``group_commit`` (a :class:`FlushCoalescer`, or an int shorthand for
    ``FlushCoalescer(max_commits=n)``) defers the per-commit flush into
    size- and count-bounded batches; ``None`` keeps the classic
    flush-every-commit durability.

    ``last_lsn`` is the LSN of the newest record and ``durable_lsn`` the
    watermark below which every record is on stable storage *as the
    device confirms it*: :meth:`flush` advances it, :meth:`resync` and
    :meth:`truncate` reset it.  The buffer pool stamps dirty frames with
    the first and gates its write-backs on the second (:meth:`force`).
    """

    def __init__(self, device=None, group_commit=None, sequencer=None):
        self.device = device if device is not None else MemoryLogDevice()
        if isinstance(group_commit, int):
            group_commit = FlushCoalescer(max_commits=group_commit)
        self.group_commit = group_commit
        # A shared LSN sequencer turns this log into one *segment* of a
        # segmented WAL (repro.storage.segmented): every segment draws
        # LSNs from the same counter, so a merge-sort of segments by LSN
        # reconstructs the global append order for recovery.
        self._sequencer = sequencer
        self._lock = threading.Lock()
        self._next_lsn = 1
        self.last_lsn = 0
        self.durable_lsn = 0
        self.flush_count = 0
        # Observability hook (repro.obs): a MetricsRegistry/ScopedMetrics
        # installed by ObservabilityKit.attach_log, or None.  The append
        # path pre-binds its two instruments in ``_obs_bound`` so the
        # per-record cost is two attribute bumps, not registry lookups.
        self.metrics = None
        self._obs_bound = None
        # Decoded-record cache: the live system reads the log on every
        # abort (updates_by) and at each delegation; re-decoding the whole
        # device each time would make abort cost quadratic in history.
        self._decoded = []
        self.resync()

    def _reset_index(self):
        """An empty attribution index (``_lock`` held, or at open)."""
        self._updates_by_tid = {}
        self._max_tid = 0
        self._winners = set()
        self._finished_aborts = set()
        self._prepares = []
        # Delegatees, and delegators left with no update: with the keys
        # of ``_updates_by_tid``, everyone who ever wrote.
        self._delegation_parties = set()
        self._oids = set()  # oid values with an image record here
        self.redo_lsn = 0  # the last checkpoint marker's mark

    def resync(self):
        """Rebuild the decoded cache and attribution index from the device.

        Called at open and after anything changes the device underneath
        us (crash simulation dropping unflushed records, truncation by
        another handle).
        """
        with self._lock:
            # Let go of the old cache and index first: one decoded copy
            # of the log in memory while rebuilding, not two.
            self._decoded = []
            self._reset_index()
            self._decoded = [
                decode_record(raw) for raw in self.device.read_all()
            ]
            for record in self._decoded:
                self._next_lsn = max(self._next_lsn, record.lsn.value + 1)
                self._index_record(record)
            self.last_lsn = (
                self._decoded[-1].lsn.value if self._decoded else 0
            )
            self.durable_lsn = self._confirmed_lsn(
                self.device.durable_count(), len(self._decoded), self.last_lsn
            )
            if self._sequencer is not None:
                self._sequencer.advance_to(self._next_lsn)
            if self.group_commit is not None:
                self.group_commit.abandon()

    def _index_record(self, record):
        """Fold one appended record into the attribution index.

        Must be called with ``_lock`` held.  Delegation is applied
        *here*, as the record arrives, so attribution queries later are
        pure dict probes — this is what keeps abort cost linear instead
        of quadratic in history length.
        """
        tid = record.tid
        if tid.value > self._max_tid:
            self._max_tid = tid.value
        if isinstance(record, AfterImageRecord):
            # Nothing to fold: its tid is counted, and its oid arrived
            # with the before image that precedes every after image.
            return
        if isinstance(record, BeforeImageRecord):
            self._updates_by_tid.setdefault(tid, []).append(record)
            self._oids.add(record.oid.value)
        elif isinstance(record, DelegateRecord):
            self._max_tid = max(self._max_tid, record.delegatee.value)
            self._delegation_parties.add(record.delegatee)
            mine = self._updates_by_tid.get(record.tid)
            if mine:
                oids = set(record.oids)
                moved = [r for r in mine if r.oid in oids]
                if moved:
                    kept = [r for r in mine if r.oid not in oids]
                    if kept:
                        self._updates_by_tid[tid] = kept
                    else:  # delegated everything away: still a writer
                        del self._updates_by_tid[tid]
                        self._delegation_parties.add(tid)
                    theirs = self._updates_by_tid.setdefault(
                        record.delegatee, []
                    )
                    theirs.extend(moved)
                    # Moved records interleave with the delegatee's own;
                    # both runs are already LSN-sorted, so this is a
                    # near-linear merge under Timsort.
                    theirs.sort(key=lambda r: r.lsn.value)
        elif isinstance(record, (CommitRecord, PrepareRecord, DecisionRecord)):
            for member in record.group:
                self._max_tid = max(self._max_tid, member.value)
            if isinstance(record, PrepareRecord):
                self._prepares.append(record)
            elif isinstance(record, CommitRecord) or record.verdict == "commit":
                self._winners.add(tid)
                self._winners.update(record.group)
        elif isinstance(record, AbortRecord):
            self._finished_aborts.add(tid)
        elif isinstance(record, CheckpointRecord):
            for active in record.active:
                self._max_tid = max(self._max_tid, active.value)
            self.redo_lsn = record.redo_lsn

    def _append(self, build):
        with self._lock:
            if self._sequencer is None:
                lsn = Lsn(self._next_lsn)
                self._next_lsn += 1
            else:
                lsn = Lsn(self._sequencer.next_value())
                self._next_lsn = lsn.value + 1
            self.last_lsn = lsn.value
            record = build(lsn)
            encoded = encode_record(record)
            self.device.append(encoded)
            self._decoded.append(record)
            self._index_record(record)
            if self.group_commit is not None:
                self.group_commit.note_append(len(encoded))
            metrics = self.metrics
            if metrics is not None:
                bound = self._obs_bound
                if bound is None or bound[0] is not metrics:
                    bound = self._obs_bound = (
                        metrics,
                        metrics.counter("wal.appends"),
                        metrics.histogram("wal.append_bytes"),
                    )
                bound[1].value += 1
                bound[2].observe(len(encoded))
            return record

    # -- record writers --------------------------------------------------------

    def log_before_image(self, tid, oid, image):
        """Write a before-image record; returns the record."""
        return self._append(
            lambda lsn: BeforeImageRecord(lsn=lsn, tid=tid, oid=oid, image=image)
        )

    def log_after_image(self, tid, oid, image):
        """Write an after-image record; returns the record."""
        return self._append(
            lambda lsn: AfterImageRecord(lsn=lsn, tid=tid, oid=oid, image=image)
        )

    def log_commit(self, tid, group=()):
        """Write a commit record (with group members, if a group commit).

        Without a coalescer the record is flushed immediately (classic
        commit durability).  With one, the commit *enrolls* in the
        current flush batch and the device is only synced when a batch
        bound trips — one ``fsync`` amortised over the whole batch.
        """
        record = self._append(
            lambda lsn: CommitRecord(lsn=lsn, tid=tid, group=tuple(group))
        )
        if self.group_commit is None or self.group_commit.enroll_commit():
            self.flush()
        return record

    def log_abort(self, tid):
        """Write an abort-completion record."""
        return self._append(lambda lsn: AbortRecord(lsn=lsn, tid=tid))

    def log_delegate(self, tid, delegatee, oids):
        """Write a delegation record so recovery can re-attribute undo."""
        return self._append(
            lambda lsn: DelegateRecord(
                lsn=lsn, tid=tid, delegatee=delegatee, oids=tuple(oids)
            )
        )

    def log_prepare(self, tid, group=(), gid=0, coordinator="", sites=()):
        """Force-write a prepare (vote-commit) record.

        Always flushed immediately — the vote must be durable before it
        is sent, whatever the group-commit policy, because the
        participant gives up its right to abort unilaterally the moment
        the coordinator can observe the vote.
        """
        record = self._append(
            lambda lsn: PrepareRecord(
                lsn=lsn,
                tid=tid,
                group=tuple(group),
                gid=gid,
                coordinator=coordinator,
                sites=tuple(sites),
            )
        )
        self.flush()
        return record

    def log_decision(self, tid, gid, verdict, group=(), participants=()):
        """Force-write the coordinator's decision record.

        Commit decisions must hit stable storage before any COMMIT
        message leaves the coordinator — this record is the global
        commit point.  (Presumed abort: callers never force abort
        decisions; the absence of a decision record *is* the abort.)
        """
        record = self._append(
            lambda lsn: DecisionRecord(
                lsn=lsn,
                tid=tid,
                gid=gid,
                verdict=verdict,
                group=tuple(group),
                participants=tuple(participants),
            )
        )
        self.flush()
        return record

    def log_takeover(self, gid, epoch, old_coordinator, verdict, votes=()):
        """Force-write a takeover claim for an in-doubt group.

        Must be durable before the new coordinator publishes the
        re-derived decision: if the taker crashes between the two
        records, restart sees the claim and re-runs the (idempotent)
        derivation under the same fencing epoch instead of inventing a
        fresh one.
        """
        record = self._append(
            lambda lsn: TakeoverRecord(
                lsn=lsn,
                tid=Tid(0),
                gid=gid,
                epoch=epoch,
                old_coordinator=old_coordinator,
                verdict=verdict,
                votes=tuple(votes),
            )
        )
        self.flush()
        return record

    def log_workflow(self, wid, kind, payload=b"", tid=None):
        """Force-write a workflow state-transition record.

        Always flushed immediately, like :meth:`log_prepare`: the
        workflow engine acts on a transition only after it is durable
        (an attempt record must be stable before the step transaction's
        commit record can land), so the resume protocol never observes a
        commit whose attempt evaporated with the crash.
        """
        record = self._append(
            lambda lsn: WorkflowRecord(
                lsn=lsn,
                tid=tid if tid is not None else Tid(0),
                wid=wid,
                kind=kind,
                payload=bytes(payload),
            )
        )
        self.flush()
        return record

    def log_checkpoint(self, active, redo_lsn=0):
        """Force-write a checkpoint marker carrying the redo mark."""
        record = self._append(
            lambda lsn: CheckpointRecord(
                lsn=lsn, tid=Tid(0), active=tuple(active), redo_lsn=redo_lsn
            )
        )
        self.flush()
        return record

    # -- reading ----------------------------------------------------------------

    @property
    def last_lsn_value(self):
        """The LSN of the most recent record (0 when the log is empty).

        With a shared sequencer, LSNs are global and sparse per segment,
        so the segment reports its own most recent record's LSN rather
        than the counter position.
        """
        with self._lock:
            if self._sequencer is not None:
                return self.last_lsn
            return self._next_lsn - 1

    def flush(self):
        """Force the log to stable storage (commit durability point).

        Drains the group-commit batch, if one is pending: everything
        enrolled so far becomes durable with this single device sync.

        When the coalescer carries a :class:`FlushHealth` breaker, every
        flush outcome feeds it: a raised device fault is a failure (and
        re-raises — the batch stays pending for the retry), and a
        *silent* failure is caught by auditing the device's durable
        record count against what was appended (a lying fsync returns
        success while leaving records volatile).
        """
        health = self.group_commit.health if self.group_commit is not None else None
        with self._lock:
            # What this sync can vouch for: records appended before it.
            appended, last_lsn = len(self._decoded), self.last_lsn
        try:
            self.device.flush()
        except TransientIOError as exc:
            if health is not None:
                health.note_failure(str(exc))
            raise
        self.flush_count += 1
        metrics = self.metrics
        if metrics is not None:
            metrics.inc("wal.flushes")
            if self.group_commit is not None:
                # Batch sizes *at* the flush: how much one fsync bought.
                metrics.observe(
                    "wal.flush_batch_commits", self.group_commit.pending_commits
                )
                metrics.observe(
                    "wal.flush_batch_bytes", self.group_commit.pending_bytes
                )
        # Advance the watermark to what the device confirms.  No lock: a
        # racing flush can only leave it lower than the truth, which
        # costs a redundant force, never a missing one.
        durable = self.device.durable_count()
        confirmed = last_lsn
        if durable < appended:  # a lied fsync: only a prefix is safe
            with self._lock:
                confirmed = self._confirmed_lsn(durable, appended, last_lsn)
        if confirmed > self.durable_lsn:
            self.durable_lsn = confirmed
        if health is not None:
            if durable < appended:
                health.note_failure(
                    f"lying fsync: {durable} of {appended} records durable"
                )
            else:
                health.note_success()
        if self.group_commit is not None:
            self.group_commit.note_flushed()

    def _confirmed_lsn(self, durable, appended, last_lsn):
        """The LSN through which the log is durable when the device
        confirms ``durable`` records of the ``appended`` (the newest at
        ``last_lsn``) it was asked about.  Called with ``_lock`` held."""
        if durable >= appended:
            return last_lsn
        return self._decoded[durable - 1].lsn.value if durable else 0

    def force(self, lsn):
        """The write-ahead gate: make the log durable through ``lsn``.

        Syncs the device only if a record at or below ``lsn`` is still
        volatile; returns whether it had to.  A page stamped ``lsn`` may
        reach disk once this returns.
        """
        if lsn <= self.durable_lsn:
            return False
        self.flush()
        if self.metrics is not None:
            self.metrics.inc("wal.forces")
        return True

    def truncate(self):
        """Discard all records (LSNs keep counting upward).

        Only valid at a *sharp checkpoint*: every page flushed and no
        active transactions, so nothing in the log is still needed for
        redo or undo.  The storage manager enforces that precondition.
        """
        with self._lock:
            self.device.reset()
            self._decoded = []
            self._reset_index()
            self.durable_lsn = self.last_lsn  # nothing volatile is left

    def records(self, durable_only=False):
        """All records in LSN order (optionally only durable ones).

        The durable view always re-reads the device (that is the whole
        point — it is what a restart would see); the live view is served
        from the decoded cache.
        """
        if durable_only:
            return [
                decode_record(raw) for raw in self.device.read_all(True)
            ]
        with self._lock:
            return list(self._decoded)

    def __len__(self):
        return len(self._decoded)

    def drop_volatile(self):
        """Restart's first act: cut the log back to what is durable.

        After a crash simulation or a fresh open the decoded cache *is*
        the durable view and this does nothing.  Called with the cache
        ahead of the device (no crash first, or a lied fsync), the
        volatile tail is dropped — device and index — so restart
        analyses exactly the records it would find after a power cut.
        """
        if len(self._decoded) > self.device.durable_count():
            self.device.crash()
            self.resync()

    def analysis(self):
        """Restart analysis, as folded at append: ``(winners, finished
        aborts, prepare records in LSN order, writers)`` — copies."""
        with self._lock:
            return (
                set(self._winners),
                set(self._finished_aborts),
                list(self._prepares),
                self._delegation_parties.union(self._updates_by_tid),
            )

    def redo_records(self, whole=False):
        """The after images restart must reinstall, in LSN order: those
        above the last checkpoint's mark (``redo_lsn``), or every one
        if ``whole``."""
        with self._lock:
            start = 0
            if not whole:
                start = bisect_right(
                    self._decoded, self.redo_lsn, key=lambda r: r.lsn.value
                )
            return [
                record
                for record in self._decoded[start:]
                if isinstance(record, AfterImageRecord)
            ]

    def image_oids(self):
        """Values of the object ids with an image record in this log."""
        with self._lock:
            return set(self._oids)

    def max_tid_value(self):
        """The highest transaction id appearing anywhere in the log.

        A restarted transaction manager must allocate tids above this
        value; reusing a logged tid would let a new transaction's abort
        undo (or its commit revive) a previous incarnation's updates.

        Served from the attribution index — maintained at append time and
        rebuilt once by :meth:`resync` — so restart does not rescan the
        whole history (``max_tid_value_scan`` is the oracle).
        """
        with self._lock:
            return self._max_tid

    def updates_by(self, tid):
        """Before-image records currently attributed to ``tid``, in order.

        Applies delegation records: an update whose responsibility was
        delegated away no longer belongs to ``tid``; one delegated to
        ``tid`` does.  This is the log-side view used by recovery; the
        live transaction manager tracks the same attribution in memory.

        Re-attribution happens incrementally as delegate records are
        appended, so this is a dict probe plus a copy of the (usually
        short) per-transaction list — abort and delegation cost stays
        proportional to the transaction's own footprint, not to the full
        log (``updates_by_scan`` is the oracle the property tests check
        against).
        """
        with self._lock:
            return list(self._updates_by_tid.get(tid, ()))

    # -- scan oracles ------------------------------------------------------
    #
    # The pre-index implementations, retained verbatim: the property
    # suite replays `records()` from scratch through these and asserts
    # the incremental index agrees after arbitrary interleavings of
    # writes, delegations, crashes, and resyncs.

    def max_tid_value_scan(self):
        """Full-scan reference implementation of :meth:`max_tid_value`."""
        highest = 0
        for record in self.records():
            highest = max(highest, record.tid.value)
            if isinstance(record, (CommitRecord, PrepareRecord, DecisionRecord)):
                for member in record.group:
                    highest = max(highest, member.value)
            elif isinstance(record, DelegateRecord):
                highest = max(highest, record.delegatee.value)
            elif isinstance(record, CheckpointRecord):
                for active in record.active:
                    highest = max(highest, active.value)
        return highest

    def updates_by_scan(self, tid):
        """Full-scan reference implementation of :meth:`updates_by`."""
        responsible = {}
        mine = []
        for record in self.records():
            if isinstance(record, BeforeImageRecord):
                responsible[record.lsn] = record.tid
                mine.append(record)
            elif isinstance(record, DelegateRecord):
                for update in mine:
                    if (
                        responsible[update.lsn] == record.tid
                        and update.oid in record.oids
                    ):
                        responsible[update.lsn] = record.delegatee
        return [r for r in mine if responsible[r.lsn] == tid]
