"""The write-ahead log.

The section 4.2 ``write`` algorithm logs the *before image* of an object,
performs the write, then logs the *after image*.  Both images are known
before the write — the after image is the argument — so here an update is
**one** record, :class:`UpdateRecord`, carrying both, and the rule at
every site that changes a page is one: *append the record, then install*.
``commit`` places a commit record; ``abort`` reads the log installing
before images, each restoration logged first as a redo-only
:class:`CompensationRecord`.  Delegation moves undo responsibility
between transactions, so the log also carries delegate records — recovery
uses them to attribute each update to the transaction that was
responsible for it at the end of the log.

Records are encoded to a compact length-prefixed binary form and can be
persisted to a file (:class:`FileLogDevice`) or kept in memory
(:class:`MemoryLogDevice`).  Either way records round-trip bytes, so crash
simulation replays exactly what a real restart would see.
"""

from __future__ import annotations

import os
import struct
import threading
import zlib
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import attrgetter

from repro.common.errors import StorageError, TransientIOError
from repro.common.ids import NULL_TID, Lsn, ObjectId, Tid

_HEADER = struct.Struct("<BQQ")  # record type, lsn, tid
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_HINT = struct.Struct("<QQQ")  # sidecar: byte offset, record ordinal, lsn

# Bytes 1 and 2 were the before- and after-image records an update used
# to be written as; they are retired, never reused, and refused by name.
_RETIRED_TYPES = (1, 2)
_TYPE_COMMIT = 3
_TYPE_ABORT = 4
_TYPE_DELEGATE = 5
_TYPE_CHECKPOINT = 6
_TYPE_PREPARE = 7
_TYPE_DECISION = 8
_TYPE_WORKFLOW = 9
_TYPE_TAKEOVER = 10
_TYPE_UPDATE = 11
_TYPE_COMPENSATION = 12

_ABSENT = 0xFFFFFFFF  # length marker: image of a not-yet-existing object
_READ_BUFFER = 1 << 16  # a file walk's record buffer: several pages' worth


@dataclass(frozen=True)
class LogRecord:
    """Base class for all log records."""

    lsn: Lsn
    tid: Tid


@dataclass(frozen=True)
class UpdateRecord(LogRecord):
    """One update of ``oid`` by ``tid``: undoable and redoable.

    ``before is None`` means the object did not exist — the update is a
    creation, and its undo is a deletion; ``after is None`` means the
    update is a deletion.  Appended before the page is touched.
    """

    oid: ObjectId = None
    before: bytes = None
    after: bytes = None


@dataclass(frozen=True)
class CompensationRecord(LogRecord):
    """Undo restored ``oid`` to ``after`` on behalf of ``tid``.

    Redo-only: restart reinstalls it like an update's after image, and
    nothing ever undoes it.  Appended before the image is installed.
    """

    oid: ObjectId = None
    after: bytes = None


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
    """A checkpoint marker: the then-active transactions, the redo mark,
    and a summary of the log's history.

    Written *after* the buffer pool was flushed, carrying the log's last
    LSN read *before* that flush began.  A durable marker therefore
    means every after image at or below ``redo_lsn`` is in the page
    file, and restart redo may begin above it.  ``0`` means "from the
    start of the log".

    The rest is the **summary**: what the log's index knows of records a
    log opened at its restart point, or past a truncation, cannot re-read
    (ARIES's checkpoint carries its transaction table the same way).
    ``max_tid`` is the highest tid; ``votes`` the open votes; ``records``
    the newest claim, decision and vote of each global group, every
    record of each unfinished workflow execution and the ``finished``
    record of each finished one; ``committed`` the tids those name that
    committed.  ``max_tid is None`` (a marker from before the summary)
    vouches for nothing: a log with no better marker opens at the start.
    """

    active: tuple = ()
    redo_lsn: int = 0
    max_tid: int = None
    committed: tuple = ()
    votes: tuple = ()
    records: tuple = ()


@dataclass(frozen=True)
class PrepareRecord(LogRecord):
    """``tid`` (plus its local GC ``group``) voted commit in global ``gid``.

    The presumed-abort vote record: force-written *before* the
    participant's VOTE-COMMIT message leaves the site.  After a crash,
    a prepared-but-undecided transaction is *in doubt* — recovery keeps
    its updates and the site asks ``coordinator`` for the verdict.
    ``sites`` is the full membership, so that an in-doubt participant
    knows whom to poll — and whom to *become* — if the coordinator is
    gone for good.
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
    ``participants`` the unacknowledged remote members a restart
    re-notifies (a taker's names all).  Presumed abort means abort decisions
    are never force-logged — no record, no decision, verdict abort.
    """

    gid: int = 0
    verdict: str = "commit"
    group: tuple = ()
    participants: tuple = ()

    def decided_tids(self):
        """The coordinator-local tids this decision commits: none named
        by the null tid, which a taker with no local member logs."""
        return {self.tid, *self.group} - {NULL_TID}


@dataclass(frozen=True)
class WorkflowRecord(LogRecord):
    """One durable workflow-orchestration state transition.

    ``wid`` names the workflow execution, ``kind`` the transition (the
    vocabulary lives in :mod:`repro.workflow.records`), ``payload`` an
    opaque encoded body, ``tid`` the step transaction an attempt is
    about to commit (``Tid(0)``: none).  Redo and undo ignore them; the
    index keeps each unfinished execution's records and each finished
    one's last, which the engine folds back into ``WorkflowExecution``
    state after a restart.  Always force-flushed: the resume protocol
    needs every transition durable before the action it describes.
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


# Group evidence: (claims, decisions, votes), gid -> newest of each kind.
_EVIDENCE_SLOT = {TakeoverRecord: 0, DecisionRecord: 1, PrepareRecord: 2}
# The kind of a workflow execution's last record, the one the index
# keeps once it is there (``repro.workflow.records.FINISHED``).
WORKFLOW_FINISHED = "finished"


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
    return _U32.pack(len(tids)) + b"".join(_U64.pack(t) for t in tids)


def _unpack_tids(raw, offset, kind=Tid):
    (count,) = _U32.unpack_from(raw, offset)
    offset += _U32.size
    values = struct.unpack_from(f"<{count}Q", raw, offset)
    return tuple(map(kind, values)), offset + count * _U64.size


def encode_record(record):
    """Serialize a record to bytes (without the device length prefix)."""
    if isinstance(record, UpdateRecord):
        body = (
            _U64.pack(record.oid)
            + _pack_image(record.before)
            + _pack_image(record.after)
        )
        rtype = _TYPE_UPDATE
    elif isinstance(record, CompensationRecord):
        body = _U64.pack(record.oid) + _pack_image(record.after)
        rtype = _TYPE_COMPENSATION
    elif isinstance(record, CommitRecord):
        rtype, body = _TYPE_COMMIT, _pack_tids(record.group)
    elif isinstance(record, AbortRecord):
        rtype, body = _TYPE_ABORT, b""
    elif isinstance(record, DelegateRecord):
        body = (
            _U64.pack(record.delegatee)
            + _U32.pack(len(record.oids))
            + b"".join(_U64.pack(o) for o in record.oids)
        )
        rtype = _TYPE_DELEGATE
    elif isinstance(record, CheckpointRecord):
        body = _pack_tids(record.active) + _U64.pack(record.redo_lsn)
        if record.max_tid is not None:
            body += (
                _U64.pack(record.max_tid)
                + _pack_tids(record.committed)
                + _pack_records(record.votes)
                + _pack_records(record.records)
            )
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
    return _HEADER.pack(rtype, record.lsn, record.tid) + body


def decode_record(raw):
    """Reconstruct a record from bytes produced by :func:`encode_record`."""
    rtype, lsn_value, tid_value = _HEADER.unpack_from(raw, 0)
    lsn, tid = Lsn(lsn_value), Tid(tid_value)
    offset = _HEADER.size
    if rtype in (_TYPE_UPDATE, _TYPE_COMPENSATION):
        (oid_value,) = _U64.unpack_from(raw, offset)
        oid = ObjectId(oid_value)
        image, offset = _unpack_image(raw, offset + _U64.size)
        if rtype == _TYPE_COMPENSATION:
            return CompensationRecord(lsn=lsn, tid=tid, oid=oid, after=image)
        after, offset = _unpack_image(raw, offset)
        return UpdateRecord(lsn=lsn, tid=tid, oid=oid, before=image, after=after)
    if rtype == _TYPE_COMMIT:
        group, offset = _unpack_tids(raw, offset)
        return CommitRecord(lsn=lsn, tid=tid, group=group)
    if rtype == _TYPE_ABORT:
        return AbortRecord(lsn=lsn, tid=tid)
    if rtype == _TYPE_DELEGATE:
        (delegatee,) = _U64.unpack_from(raw, offset)
        oids, offset = _unpack_tids(raw, offset + _U64.size, ObjectId)
        return DelegateRecord(lsn, tid, Tid(delegatee), oids)
    if rtype == _TYPE_CHECKPOINT:
        active, offset = _unpack_tids(raw, offset)
        redo_lsn, fields = 0, {}
        if offset < len(raw):  # else from before the mark: redo everything
            (redo_lsn,) = _U64.unpack_from(raw, offset)
            offset += _U64.size
        if offset + _U64.size < len(raw):  # else vouches for nothing
            for name, read in _SUMMARY:
                fields[name], offset = read(raw, offset)
        return CheckpointRecord(lsn, tid, active, redo_lsn, **fields)
    if rtype in _FIELDS:
        cls, readers = _FIELDS[rtype]
        fields = []
        for read in readers:
            value, offset = read(raw, offset)
            fields.append(value)
        return cls(lsn, tid, *fields)
    if rtype in _RETIRED_TYPES:
        raise StorageError(
            f"record at LSN {lsn_value} has type byte {rtype}: this log was"
            f" written before updates became one record"
        )
    raise StorageError(f"unknown record type byte: {rtype}")


def _unpack_u64(raw, offset):
    return _U64.unpack_from(raw, offset)[0], offset + _U64.size


# Records no hot path decodes, read field by field in declaration order.
_FIELDS = {
    _TYPE_PREPARE: (
        PrepareRecord, (_unpack_tids, _unpack_u64, _unpack_str, _unpack_strs)
    ),
    _TYPE_DECISION: (
        DecisionRecord, (_unpack_u64, _unpack_str, _unpack_tids, _unpack_strs)
    ),
    _TYPE_WORKFLOW: (WorkflowRecord, (_unpack_u64, _unpack_str, _unpack_image)),
    _TYPE_TAKEOVER: (
        TakeoverRecord,
        (_unpack_u64, _unpack_u64, _unpack_str, _unpack_str, _unpack_strs),
    ),
}


def _pack_records(records):
    encoded = [encode_record(record) for record in records]
    return _U32.pack(len(encoded)) + b"".join(map(_pack_image, encoded))


def _unpack_records(raw, offset, decode=decode_record):
    """A summary's records.  ``decode`` is bound here: they are parts of
    one marker, not records read off the device."""
    (count,) = _U32.unpack_from(raw, offset)
    offset += _U32.size
    records = []
    for __ in range(count):
        encoded, offset = _unpack_image(raw, offset)
        records.append(decode(encoded))
    return tuple(records), offset


_SUMMARY = (
    ("max_tid", _unpack_u64), ("committed", _unpack_tids),
    ("votes", _unpack_records), ("records", _unpack_records),
)


class MemoryLogDevice:
    """Log persistence in memory: a list of encoded records.

    A chaos ``injector`` (:mod:`repro.chaos.faults`) numbers every append
    and flush as an I/O step; a flush can be *lied about* (lost fsync),
    leaving ``_durable_count`` behind while the caller believes it safe.
    ``hint`` is the restart hint, ``(record ordinal, LSN there)`` or
    ``None``, and ``point`` the restart point it was taken at (0: none).
    Like a file log's sidecar they survive :meth:`crash`, travel with
    :meth:`snapshot` / :meth:`restore`, and go with :meth:`reset`;
    setting them is no I/O step.
    """

    def __init__(self, injector=None):
        self.injector = injector
        self._records = []
        self._durable_count = 0
        self.hint = None
        self.point = 0

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

    def set_hint(self, ordinal=None, lsn=0, point=None):
        """Name record number ``ordinal`` (its LSN ``lsn``) as where a
        reopen may start decoding, for restart point ``point`` (default
        ``lsn``); ``None`` forgets the hint."""
        self.hint = None if ordinal is None else (ordinal, lsn)
        self.point = 0 if ordinal is None else point or lsn

    def snapshot(self):
        """Capture the complete device state (for reference replays)."""
        return list(self._records), self._durable_count, self.hint, self.point

    def restore(self, snapshot):
        """Reset the device to a previously captured snapshot."""
        self._records = list(snapshot[0])
        self._durable_count, self.hint, self.point = snapshot[1:]

    def read_all(self, durable_only=False):
        """Iterate over encoded records, optionally only the flushed ones."""
        upto = self._durable_count if durable_only else len(self._records)
        return iter(self._records[:upto])

    def read_tail(self):
        """Iterate over the encoded records from the hint on (from the
        start without one)."""
        return iter(self._records[self.hint[0] if self.hint else 0 :])

    def read_prefix(self):
        """Iterate over the encoded records below the hint."""
        return iter(self._records[: self.hint[0] if self.hint else 0])

    def crash(self):
        """Drop every record not yet flushed (crash simulation)."""
        del self._records[self._durable_count :]

    def reset(self):
        """Discard the whole log (sharp-checkpoint truncation)."""
        self._records.clear()
        self._durable_count = 0
        self.set_hint()

    def close(self):
        """Nothing to release for the in-memory device."""


class FileLogDevice:
    """Log persistence in a file of length-prefixed records.

    The device knows what is durable: the size of the file at its last
    real ``fsync`` (everything found at open counts — it is what
    survived).  ``read_all(durable_only=True)`` stops there,
    :meth:`crash` cuts the file back to it, and :meth:`durable_count`
    reports it, exactly as :class:`MemoryLogDevice` does.

    Opening does not walk the file.  The pass the log's ``resync`` makes
    anyway, :meth:`read_tail`, starts at the **restart hint** — ``(byte
    offset, record ordinal, LSN there)``, kept in a sidecar
    (``<path>.restart``; with a segment's restart ``point`` when it lies
    below that LSN) — and learns where each record from there on begins
    (``_starts``; appends extend it): enough to count records, find what
    is durable, and turn the next hint's ordinal into an offset.  It ends
    at the last complete record and cuts a torn tail off the file, so the
    next append lands where a restart looks.  Readers yield views of one
    reused buffer (:meth:`_read`).  The sidecar is replaced by write-new
    + rename, never synced, and only after the records it names are
    durable: any version that survives a power cut names a true record
    boundary, fails the check at open, or is merely old — an earlier
    point, only slower.  A log file created here, or :meth:`reset`,
    discards it.
    """

    def __init__(self, path, injector=None):
        self.path = str(path)
        self.injector = injector
        mode = "r+b" if os.path.exists(self.path) else "w+b"
        self._file = open(self.path, mode)
        self._file.seek(0, os.SEEK_END)
        self._end = self._durable_size = self._file.tell()
        # Byte offsets of the records numbered ``_first`` and up; not
        # known (``None``) until ``read_tail`` has walked a file that
        # was not empty at open.
        self._first = 0
        self._starts = None if self._end else []
        self._sidecar = self.path + ".restart"
        self.hint, self.point = self._load_hint() or (None, 0)
        if self.hint is None:
            # No sidecar outlives the check it failed — and one found
            # beside a new log describes some other file.
            self.set_hint()

    def _load_hint(self):
        """The sidecar's hint and point, if it is whole and a complete
        record with the LSN it names is framed at its offset.  Nothing
        here counts the records below that offset: past a bound on how
        many can fit there, the ordinal is the checksummed sidecar's
        word, held to account when the prefix is next read
        (``WriteAheadLog.records``).
        """
        try:
            with open(self._sidecar, "rb") as sidecar:
                raw = sidecar.read()
        except OSError:
            return None
        body = raw[: -_U32.size]
        if len(body) not in (_HINT.size, _HINT.size + _U64.size):
            return None
        if _U32.unpack_from(raw, len(body))[0] != zlib.crc32(body):
            return None
        hint = _HINT.unpack_from(body)
        point = hint[2]
        if len(body) > _HINT.size:
            (point,) = _U64.unpack_from(body, _HINT.size)
        if point > hint[2] or hint[1] * (_U32.size + _HEADER.size) > hint[0]:
            return None  # more records below the offset than fit there
        __, record = next(self._read(hint[0]), (0, b""))
        if len(record) < _HEADER.size or _HEADER.unpack_from(record)[1] != hint[2]:
            return None
        return hint, point

    def set_hint(self, ordinal=None, lsn=0, point=None):
        """Name record number ``ordinal`` (its LSN ``lsn``) as where a
        reopen may start decoding, for restart point ``point`` (default
        ``lsn``); ``None`` forgets the hint."""
        if ordinal is None:
            self.hint, self.point = None, 0
            if os.path.exists(self._sidecar):
                os.remove(self._sidecar)
            return
        del self._starts[: ordinal - self._first]
        self._first = ordinal
        self.hint = (self._starts[0], ordinal, lsn)
        self.point = point or lsn
        raw = _HINT.pack(*self.hint)
        if self.point != lsn:
            raw += _U64.pack(self.point)
        with open(self._sidecar + ".new", "wb") as fresh:
            fresh.write(raw + _U32.pack(zlib.crc32(raw)))
        os.replace(self._sidecar + ".new", self._sidecar)

    def append(self, raw):
        def do_append():
            self._starts.append(self._end)
            self._file.write(_U32.pack(len(raw)))
            self._file.write(raw)
            self._end += _U32.size + len(raw)

        if self.injector is None:
            do_append()
        else:
            self.injector.log_append(len(raw), do_append)

    def flush(self):
        # Runs only when the sync really happens: an injector that lies
        # about (or fails) the flush leaves the durable mark behind.
        def do_flush():
            self._file.flush()
            os.fsync(self._file.fileno())
            self._durable_size = self._end

        if self.injector is None:
            do_flush()
        else:
            self.injector.log_flush(do_flush)

    def durable_count(self):
        """How many records a restart would actually see."""
        if self._starts is None:
            for __ in self.read_tail():
                pass
        return self._first + bisect_left(self._starts, self._durable_size)

    def _read(self, offset, limit=None):
        """``(offset, encoded record)`` for each record framed from
        ``offset`` on that ends within ``limit`` (default: the file).

        Every record is read into the one buffer this walk allocates
        (a larger one only for a record that outgrows it), so a walk of
        the whole history holds no per-record transient: the record
        yielded is a ``memoryview`` of that buffer, **valid until the
        next one is asked for** — decode it or copy it before then.
        """
        self._file.flush()
        if limit is None:
            limit = os.path.getsize(self.path)
        buffer = bytearray(_READ_BUFFER)
        with open(self.path, "rb") as reader:
            reader.seek(offset)
            while offset + _U32.size <= limit:
                (length,) = _U32.unpack(reader.read(_U32.size))
                end = offset + _U32.size + length
                if end > limit:
                    return  # torn tail write: ignore, as a real restart would
                if length > len(buffer):
                    buffer = bytearray(2 * length)
                record = memoryview(buffer)[:length]
                reader.readinto(record)
                yield offset, record
                offset = end

    def read_all(self, durable_only=False):
        """Iterate over encoded records, optionally only the synced ones."""
        limit = self._durable_size if durable_only else None
        return (raw for __, raw in self._read(0, limit))

    def read_tail(self):
        """Iterate over the encoded records from the hint on (from the
        start without one), learning where each begins; run to the end,
        it cuts whatever follows the last complete record off the file."""
        offset, first, __ = self.hint or (0, 0, 0)
        starts = []
        for start, raw in self._read(offset):
            starts.append(start)
            offset = start + _U32.size + len(raw)
            yield raw
        self._first, self._starts = first, starts
        if offset < os.path.getsize(self.path):
            self._file.truncate(offset)
            self._file.seek(offset)
            self._durable_size = min(self._durable_size, offset)
        self._end = offset

    def read_prefix(self):
        """Iterate over the encoded records framed below the hint."""
        limit = self.hint[0] if self.hint else 0
        return (raw for __, raw in self._read(0, limit))

    def crash(self):
        """Drop every byte not yet synced (crash simulation)."""
        self._file.truncate(self._durable_size)
        self._file.seek(self._durable_size)
        self._end = self._durable_size
        if self._starts is not None:
            del self._starts[bisect_left(self._starts, self._end) :]

    def reset(self):
        """Discard the whole log (sharp-checkpoint truncation)."""
        self._file.seek(0)
        self._file.truncate()
        self._file.flush()
        os.fsync(self._file.fileno())
        self._end = self._durable_size = self._first = 0
        self._starts = []
        self.set_hint()

    def close(self):
        self._file.close()


class FlushCoalescer:
    """Group-commit policy: amortise one device flush over many commits.

    A commit record *enrolls* instead of forcing an immediate ``fsync``;
    the batch is flushed once it holds ``max_commits`` enrolled commits
    or ``max_bytes`` of log since the last flush, whichever trips first.
    Until then the commit is *not durable*: a crash loses it as if it
    had never been requested — the standard group-commit trade (§3.1.2's
    GC dependency makes grouped durability points first-class; this is
    the storage-side analogue).  Any explicit
    :meth:`WriteAheadLog.flush` drains the batch.
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

    In memory the log is its **tail** — the decoded records from the
    *restart point* on (``base`` counts those below it) — and one
    **index** over its history, folded as each record is appended or
    decoded by the handler ``_HANDLERS`` names for its type, built once:
    attribution with delegation applied, the highest tid, winners and
    finished aborts, each object's newest image, the open votes, each
    global group's newest evidence, and each workflow execution.  Every
    query — ``updates_by``, :meth:`analysis`, :meth:`redo_records`,
    :meth:`group_evidence`, :meth:`workflows` — is a probe on it (the
    scans they replaced are test oracles, ``tests/storage/scan_oracle.py``).

    Each checkpoint marker carries a **summary** of the index
    (:class:`CheckpointRecord`), and each durable one moves the restart
    point up (:meth:`restart_point`, :meth:`open_at`): the device is
    handed a *hint* naming the record there, the records below it are
    dropped, and the index is folded again from the tail, whose marker
    vouches for the rest — what :meth:`resync` builds at open.  The hint
    is a bound, never evidence (``_load_tail``).  A truncation keeps the
    summary in the index for the next marker.  Only :meth:`records`
    re-reads the prefix, as does redo under a void mark (a torn page
    was reset).

    ``group_commit`` (a :class:`FlushCoalescer`, or an int shorthand for
    ``FlushCoalescer(max_commits=n)``) defers the per-commit flush into
    size- and count-bounded batches; ``None`` flushes every commit.
    ``last_lsn`` is the newest record's LSN and ``durable_lsn`` the
    watermark below which the device confirms every record stable:
    :meth:`flush` advances it, :meth:`resync` and :meth:`truncate` reset
    it.  The pool stamps dirty frames with the first and gates its
    write-backs on the second (:meth:`force`).
    """

    def __init__(self, device=None, group_commit=None):
        self.device = device if device is not None else MemoryLogDevice()
        if isinstance(group_commit, int):
            group_commit = FlushCoalescer(max_commits=group_commit)
        self.group_commit = group_commit
        self._sequencer = None  # see join()
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
        # The decoded tail: the live system reads the log on every abort
        # (updates_by) and at each delegation; re-decoding the device
        # each time would make abort cost quadratic in history.
        # ``_decoded[i]`` is the device's record number ``base + i``.
        self._decoded = []
        self.base = 0
        self.resync()

    def join(self, sequencer):
        """Make this log one segment of several: it draws its LSNs from
        ``sequencer``, shared by all (:mod:`repro.storage.segmented`)."""
        self._sequencer = sequencer
        sequencer.advance_to(self._next_lsn)

    def _reset_index(self):
        """An empty index (``_lock`` held, or at open)."""
        self._updates_by_tid = {}
        self._max_tid = 0
        self._winners = set()
        self._finished_aborts = set()
        # LSN -> vote with a tid that has no outcome here, in LSN order;
        # such a tid -> the open votes kept under it; ``_EVIDENCE_SLOT``.
        self._open_votes, self._votes_of = {}, {}
        self._evidence = ({}, {}, {})
        # Delegatees, and delegators left with no update: with the keys
        # of ``_updates_by_tid``, everyone who ever wrote.
        self._delegation_parties = set()
        # Each object's newest update or compensation here, and every
        # such record's LSN in order: redo's survivors and, by one
        # bisect at the mark, how many images they stand for.
        self._newest = {}
        self._image_lsns = []
        self.redo_lsn = 0  # the last checkpoint marker's mark
        # wid -> {LSN: record} of each unfinished workflow execution, and
        # wid -> the ``finished`` record of each finished one.
        self._executions, self._finished = {}, {}
        self._carried = set()  # tids a summary says committed

    def resync(self):
        """Rebuild the decoded tail and attribution index from the device.

        Called at open and after anything changes the device underneath
        us (crash simulation dropping unflushed records, truncation by
        another handle).  Decoding starts at the device's restart hint;
        one that does not hold up is discarded and the same pass runs
        again from the start of the log.
        """
        with self._lock:
            while not self._load_tail():
                self.device.set_hint()
            self.last_lsn = int(self._decoded[-1].lsn) if self._decoded else 0
            self._next_lsn = max(self._next_lsn, self.last_lsn + 1)
            self.durable_lsn = self._confirmed_lsn(
                self.device.durable_count(),
                self.base + len(self._decoded),
                self.last_lsn,
            )
            if self._sequencer is not None:
                self._sequencer.advance_to(self._next_lsn)
            if self.group_commit is not None:
                self.group_commit.abandon()

    def _load_tail(self):
        """Decode the device from its hint on into the cache and index
        (``_lock`` held); whether the result may stand.

        Without a hint that is the whole log, and it stands.  With one,
        the record it names must be there under the LSN it names, no
        more records may lie below it than the device confirms durable
        (a file device has only the sidecar's word for the ordinal, and
        :meth:`records` checks it when it reads the prefix), and — unless
        the tail *is* the log — it must hold a marker whose summary
        vouches for what lies below.  A void mark is no reason to start
        lower: redo reads the prefix through :meth:`records`.
        """
        hint = self.device.hint
        # Either device's hint ends (record ordinal, LSN there).
        *__, self.base, lsn = hint or (0, 0)
        # Let go of the old cache and index first: one decoded copy of
        # the log in memory while rebuilding, not two.
        self._decoded = []
        self._reset_index()
        self._decoded = [
            decode_record(raw) for raw in self.device.read_tail()
        ]
        self._fold(self._decoded)
        return hint is None or bool(
            self._decoded
            and self._decoded[0].lsn == lsn
            and self.base <= self.device.durable_count()
            and (not self.base or any(
                getattr(record, "max_tid", None) is not None
                for record in self._decoded
            ))
        )

    def _fold(self, records):
        """Fold ``records`` into the index (``_lock`` held): each is
        dispatched by type through ``_HANDLERS``, as ``_append`` does."""
        handlers = self._HANDLERS
        for record in records:
            if record.tid > self._max_tid:
                self._max_tid = int(record.tid)
            handlers[type(record)](self, record)

    # -- the record handlers: one per record type, each called with
    # ``_lock`` held.  Delegation is applied as its record arrives, so
    # attribution queries are dict probes and abort cost stays linear.

    def _on_update(self, record):
        self._updates_by_tid.setdefault(record.tid, []).append(record)
        self._newest[record.oid] = record
        self._image_lsns.append(record.lsn)

    def _on_compensation(self, record):
        self._newest[record.oid] = record
        self._image_lsns.append(record.lsn)

    def _on_delegate(self, record):
        tid, delegatee = record.tid, record.delegatee
        self._max_tid = int(max(self._max_tid, delegatee))
        self._delegation_parties.add(delegatee)
        mine = self._updates_by_tid.get(tid)
        if not mine:
            return
        oids = set(record.oids)
        moved = [r for r in mine if r.oid in oids]
        if moved:
            kept = [r for r in mine if r.oid not in oids]
            if kept:
                self._updates_by_tid[tid] = kept
            else:  # delegated everything away: still a writer
                del self._updates_by_tid[tid]
                self._delegation_parties.add(tid)
            theirs = self._updates_by_tid.setdefault(delegatee, [])
            theirs.extend(moved)
            # Moved records interleave with the delegatee's own; both
            # runs are already LSN-sorted: a near-linear Timsort merge.
            theirs.sort(key=attrgetter("lsn"))

    def _on_commit(self, record):
        for member in record.group:
            if member > self._max_tid:
                self._max_tid = int(member)
        self._winners.add(record.tid)
        self._winners.update(record.group)
        if self._votes_of:
            self._close_votes(record.tid, *record.group)

    def _on_abort(self, record):
        self._finished_aborts.add(record.tid)
        if self._votes_of:
            self._close_votes(record.tid)

    def _on_prepare(self, record):
        for member in record.group:
            if member > self._max_tid:
                self._max_tid = int(member)
        self._evidence[2][record.gid] = record
        self._open_vote(record)

    def _on_decision(self, record):
        for member in record.group:
            if member > self._max_tid:
                self._max_tid = int(member)
        self._evidence[1][record.gid] = record
        if record.verdict == "commit":
            if record.tid:  # a taker with no local member decides no one
                self._winners.add(record.tid)
            self._winners.update(record.group)
            if self._votes_of:
                self._close_votes(record.tid, *record.group)

    def _on_takeover(self, record):
        self._evidence[0][record.gid] = record

    def _on_workflow(self, record):
        wid = record.wid
        done = self._finished.get(wid)
        if done is not None and done.lsn >= record.lsn:
            return  # a summary's copy of what the execution did before
        if record.kind == WORKFLOW_FINISHED:
            self._finished[wid] = record
            self._executions.pop(wid, None)
        else:
            self._executions.setdefault(wid, {})[record.lsn] = record

    def _on_checkpoint(self, record):
        """Merge the marker's summary: it vouches for what the tail may
        not hold.  Every part merges by LSN, so a summary of records the
        index already holds changes nothing.  An open vote below the
        restart point is not reopened: the point stays below every vote
        still pending (:meth:`restart_point`)."""
        highest = max(self._max_tid, record.max_tid or 0, *record.active)
        self._max_tid = int(highest)
        self.redo_lsn = record.redo_lsn
        self._carried.update(record.committed)
        for kept in record.records:
            if type(kept) is WorkflowRecord:
                self._on_workflow(kept)
                continue
            evidence = self._evidence[_EVIDENCE_SLOT[type(kept)]]
            old = evidence.get(kept.gid)
            if old is None or old.lsn < kept.lsn:  # the newer one stays
                evidence[kept.gid] = kept
        point = self.device.point
        for vote in record.votes:
            if vote.lsn >= point and vote.lsn not in self._open_votes:
                self._open_vote(vote)

    _HANDLERS = {
        UpdateRecord: _on_update,
        CompensationRecord: _on_compensation,
        DelegateRecord: _on_delegate,
        CommitRecord: _on_commit,
        AbortRecord: _on_abort,
        PrepareRecord: _on_prepare,
        DecisionRecord: _on_decision,
        WorkflowRecord: _on_workflow,
        CheckpointRecord: _on_checkpoint,
        TakeoverRecord: _on_takeover,
    }

    def _open_vote(self, vote):
        """Keep ``vote`` open under a tid it covers with no outcome here."""
        for t in (vote.tid, *vote.group):
            if t not in self._winners and t not in self._finished_aborts:
                self._open_votes[vote.lsn] = vote
                self._votes_of.setdefault(t, []).append(vote)
                return
        self._open_votes.pop(vote.lsn, None)

    def _close_votes(self, *tids):
        """``tids`` have an outcome: re-key or close the votes under them."""
        votes_of = self._votes_of
        for tid in tids:
            if tid in votes_of:
                for vote in votes_of.pop(tid):
                    self._open_vote(vote)

    def _append(self, build):
        with self._lock:
            if self._sequencer is None:
                number = self._next_lsn
            else:
                number = self._sequencer.next_value()
            self._next_lsn = number + 1
            self.last_lsn = number
            record = build(Lsn(number))
            encoded = encode_record(record)
            self.device.append(encoded)
            self._decoded.append(record)
            if record.tid > self._max_tid:
                self._max_tid = int(record.tid)
            self._HANDLERS[type(record)](self, record)
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

    def log_update(self, tid, oid, before, after):
        """Write an update record — *before* the page is touched;
        returns the record."""
        return self._append(
            lambda lsn: UpdateRecord(lsn, tid, oid, before, after)
        )

    def log_compensation(self, tid, oid, after):
        """Write a compensation record — *before* undo installs
        ``after``; returns the record."""
        return self._append(
            lambda lsn: CompensationRecord(lsn=lsn, tid=tid, oid=oid, after=after)
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
            lambda lsn: DelegateRecord(lsn, tid, delegatee, tuple(oids))
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
                lsn, tid, tuple(group), gid, coordinator, tuple(sites)
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
                lsn, tid, gid, verdict, tuple(group), tuple(participants)
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
                lsn, Tid(0), gid, epoch, old_coordinator, verdict, tuple(votes)
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
                lsn, Tid(0) if tid is None else tid, wid, kind, bytes(payload)
            )
        )
        self.flush()
        return record

    def log_checkpoint(self, active, redo_lsn=0):
        """Force-write a checkpoint marker carrying the redo mark and the
        summary of the index (:meth:`_summary`).

        The storage manager then moves the restart point up, once the
        markers of every segment are durable
        (:func:`~repro.storage.segmented.move_restart_point`).  A void
        mark (0: a torn page was reset) moves nothing and gives nothing
        up: :meth:`redo_records` reads the prefix under it.
        """
        record = self._append(
            lambda lsn: self._summary(lsn, tuple(active), redo_lsn)
        )
        self.flush()
        return record

    def _summary(self, lsn, active=(), redo_lsn=0, committed=()):
        """The marker at ``lsn`` that summarises the index (``_lock``
        held): see :class:`CheckpointRecord`.  ``committed`` names tids
        another segment committed."""
        kept = [*self._finished.values()]
        for execution in self._executions.values():
            kept += execution.values()
        named = {record.tid for record in kept if record.tid}
        votes = list(self._open_votes.values())
        for vote in (*votes, *self._evidence[2].values()):
            named.update(vote.prepared_tids())
        for evidence in self._evidence:
            kept += evidence.values()
        known = (self._winners, self._carried, committed)
        won = sorted(tid for tid in named if any(tid in k for k in known))
        kept.sort(key=attrgetter("lsn"))
        return CheckpointRecord(
            lsn, Tid(0), active, redo_lsn, self._max_tid, tuple(won),
            tuple(votes), tuple(kept),
        )

    # -- the restart point -------------------------------------------------

    def restart_point(self, marker, finished=frozenset()):
        """The LSN below which restart needs no record of this log.

        The lowest of: the first record above the last checkpoint's
        redo mark (redo starts there); the first update, after
        delegation, of every writer without an outcome (undo installs
        what it found); every open vote with a tid undecided elsewhere
        too (restart must report it in doubt); and every workflow
        attempt in the tail whose step has no outcome here (another
        segment's commit record may decide it, and the summary carries
        only this one's).  ``finished`` names transactions whose outcome
        another segment recorded.  0 — keep everything — unless the
        device confirms ``marker``, the checkpoint's own, durable.
        """
        with self._lock:
            if self.durable_lsn < marker.lsn:
                return 0

            def pending(tid):
                return not (
                    tid in self._winners
                    or tid in self._finished_aborts
                    or tid in finished
                )

            # The first record above the mark: ``redo_lsn + 1`` when
            # this is the whole log, and no lower than it has to be for
            # a segment, whose LSNs are sparse.  The marker is one.
            point = int(self._decoded[self._first_above(self.redo_lsn)].lsn)
            for tid, updates in self._updates_by_tid.items():
                if updates[0].lsn < point and pending(tid):
                    point = int(updates[0].lsn)
            for vote in self._open_votes.values():
                if vote.lsn < point and any(
                    map(pending, vote.prepared_tids())
                ):
                    point = int(vote.lsn)
            start, known = self._decoded[0].lsn, self._winners | self._carried
            for execution in self._executions.values():
                for record in execution.values():
                    if start <= record.lsn < point and record.tid and not (
                        record.tid in known or record.tid in self._finished_aborts
                    ):
                        point = int(record.lsn)
            return point

    def open_at(self, point):
        """Make ``point`` (from :meth:`restart_point`; 0 moves nothing)
        where a reopen starts: hand the device the hint, then forget the
        records below it and fold the index again from the rest — what
        :meth:`resync` would now build.  The tail holds the checkpoint
        marker, whose summary vouches for the rest."""
        if not point:
            return
        with self._lock:
            cut = self._first_above(point - 1)
            if not cut:
                return
            self.base += cut
            self.device.set_hint(self.base, int(self._decoded[cut].lsn), point)
            self._decoded = self._decoded[cut:]
            self._reset_index()
            self._fold(self._decoded)

    def _first_above(self, lsn):
        """Index in the tail of the first record above ``lsn``."""
        return bisect_right(self._decoded, lsn, key=attrgetter("lsn"))

    @property
    def restart_from(self):
        """The LSN the decoded tail starts at; 0 = the whole log."""
        return int(self._decoded[0].lsn) if self.base else 0

    # -- reading ----------------------------------------------------------------

    @property
    def last_lsn_value(self):
        """The LSN of the most recent record (0 when the log is empty;
        the segmented log answers for its segments)."""
        with self._lock:
            return self._next_lsn - 1

    def flush(self):
        """Force the log to stable storage (commit durability point),
        draining the group-commit batch, if one is pending, with this
        one device sync.

        A coalescer's :class:`FlushHealth` breaker hears every outcome: a
        raised device fault is a failure (re-raised — the batch stays
        pending for the retry), and so is a *silent* one, which auditing
        the device's durable count against what was appended catches (a
        lying fsync returns success while leaving records volatile).
        """
        health = self.group_commit.health if self.group_commit is not None else None
        with self._lock:
            # What this sync can vouch for: records appended before it.
            appended = self.base + len(self._decoded)
            last_lsn = self.last_lsn
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
        durable -= self.base  # everything below the tail is durable
        return int(self._decoded[durable - 1].lsn) if durable > 0 else 0

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

    def truncate(self, committed=()):
        """Discard all records (LSNs keep counting upward), keeping their
        summary in the index for the next marker to carry; ``committed``
        names tids another segment committed.

        Only valid at a *sharp checkpoint*: every page flushed and no
        active transactions, so nothing in the log is still needed for
        redo or undo.  The storage manager enforces that precondition.
        """
        with self._lock:
            summary = self._summary(Lsn(0), committed=committed)
            self.device.reset()  # the restart hint goes with the records
            self._decoded = []
            self.base = 0
            self._reset_index()
            self._fold([summary])
            self.durable_lsn = self.last_lsn  # nothing volatile is left

    def records(self, durable_only=False):
        """All records in LSN order (optionally only durable ones, as a
        restart would see them: re-read from the device).  The live view
        is the decoded tail behind the prefix below the restart point,
        re-read from the device on every call: only tests, the oracles,
        the CLI and redo under a void mark ask for it."""
        if durable_only:
            return [
                decode_record(raw) for raw in self.device.read_all(True)
            ]
        with self._lock:
            if not self.base:
                return list(self._decoded)
            return self._prefix() + self._decoded

    def _prefix(self):
        """The records below the restart point, read from the device."""
        prefix = [decode_record(raw) for raw in self.device.read_prefix()]
        if len(prefix) != self.base:
            raise StorageError(
                f"restart hint counts {self.base} records below it;"
                f" the device holds {len(prefix)}"
            )
        return prefix

    def group_evidence(self):
        """The group evidence (``_EVIDENCE_SLOT``): the index itself, not
        a copy (a site's restart is the only reader), and the tids a
        summary carried as committed below the tail (a vote below the
        restart point was resolved there)."""
        with self._lock:
            return (*self._evidence, frozenset(self._carried))

    def workflows(self):
        """``(records, committed)``: every record of each unfinished
        workflow execution and the ``finished`` record of each finished
        one, in LSN order, and which tids they name committed here."""
        with self._lock:
            records = [*self._finished.values()]
            for execution in self._executions.values():
                records += execution.values()
        records.sort(key=attrgetter("lsn"))
        return records, self.committed({r.tid for r in records if r.tid})

    def committed(self, tids):
        """Those of ``tids`` this log says committed."""
        with self._lock:
            return {t for t in tids if t in self._winners or t in self._carried}

    def max_wid_value(self):
        """The highest workflow execution id in the log (0: none): the
        index keeps every execution, finished or not."""
        with self._lock:
            return max((*self._executions, *self._finished), default=0)

    def __len__(self):
        """Records in the decoded tail (all of them when ``base`` is 0)."""
        return len(self._decoded)

    def drop_volatile(self):
        """Restart's first act: cut the log back to what is durable —
        nothing after a crash or a fresh open; with the cache ahead of
        the device (no crash first, or a lied fsync), device and index
        drop the volatile tail, as a power cut would."""
        if self.base + len(self._decoded) > self.device.durable_count():
            self.device.crash()
            self.resync()

    def analysis(self):
        """Restart analysis, as folded at append: ``(winners, finished
        aborts, open votes in LSN order, writers)`` — copies."""
        with self._lock:
            return (
                set(self._winners),
                set(self._finished_aborts),
                list(self._open_votes.values()),
                self._delegation_parties.union(self._updates_by_tid),
            )

    def redo_records(self):
        """``(records, superseded)``: for each object with an update or
        compensation above the mark, the newest, in LSN order, off the
        index — an image is the whole object, so it leaves what all of
        them in order would — and how many older images those stand for.
        Under a void mark it reads every record: a reset page may hold
        what the prefix wrote (the one product reader of the prefix)."""
        if not self.redo_lsn and self.base:
            newest, images = {}, 0
            for record in reversed(self.records()):
                if isinstance(record, (UpdateRecord, CompensationRecord)):
                    images += 1
                    newest.setdefault(record.oid, record)
            return list(reversed(newest.values())), images - len(newest)
        with self._lock:
            mark, lsns = self.redo_lsn, self._image_lsns
            records = sorted(
                (r for r in self._newest.values() if r.lsn > mark),
                key=attrgetter("lsn"),
            )
            images = len(lsns) - bisect_right(lsns, mark)
        return records, images - len(records)

    def image_oids(self):
        """Values of the object ids redo may install: those updated or
        restored in the tail — or, under a void mark, in all the log
        redo then reads."""
        if not self.redo_lsn and self.base:
            return {
                record.oid for record in self.records()
                if isinstance(record, (UpdateRecord, CompensationRecord))
            }
        with self._lock:
            return set(self._newest)

    def max_tid_value(self):
        """The highest transaction id anywhere in the log, truncated or
        below the restart point included: a restarted manager allocates
        above it, for a reused tid's abort would undo (or its commit
        revive) an earlier incarnation's updates."""
        with self._lock:
            return self._max_tid

    def updates_by(self, tid):
        """Update records attributed to ``tid`` after delegation, in
        order: a dict probe and a copy of its own list, so abort costs
        the aborter's footprint, not the log's length."""
        with self._lock:
            return list(self._updates_by_tid.get(tid, ()))
