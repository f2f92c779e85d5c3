"""Scan oracles for what restart reads off the log's index.

Until PR 16 restart analysis walked every durable record — and, for each
``DelegateRecord``, every update seen so far — and the sharded manager
rebuilt its oid → shard directory by walking every segment.  Both walks
are kept here as the references the index-driven versions are checked
against, beside the two pre-index probes that lived on ``WriteAheadLog``
itself until PR 21 (``max_tid_value_scan`` / ``updates_by_scan``, now
functions of a log).  All of them read the two image-carrying records
there are: an :class:`UpdateRecord` is an update, a
:class:`CompensationRecord` only names an object.

Until PR 23 restart redo installed every image above the checkpoint
mark, one by one; it now installs the newest per object.  The replay of
all of them is kept here too (:func:`replay_every_image`,
:func:`images_to_replay` for a log of segments, and
:func:`redo_by_replay` to run a restart with it).

Restart redo reads each object's newest image above the mark off the
log's index.  The backward pass over the records redo reads that found
them before is kept here as its reference (:func:`redo_records_scan`,
over :func:`redo_span`).

A site's restart reads each global group's newest takeover claim,
decision and vote, and recovery the votes still open, off the log's
index; a workflow engine reads what it keeps of each execution.  The
walks that found them before are kept here as their references: type
walks of every record, and of what the checkpoint markers summarise
(:func:`history_scan`, :func:`group_evidence_scan`,
:func:`workflows_scan`), and the filter over every prepare record in
the tail (:func:`open_votes_scan`).  After a recovery no id may be live in two
page directories (:func:`ids_live_twice`).

A page keeps the bytes its live slots hold and its tombstones' slot
numbers as counters; walks of its slot directory are kept here as their
references (:func:`live_bytes_scan`, :func:`first_tombstone_scan`), and
what an insert could store there, by the same walk, as the reference for
``Page.room`` and the object store's free-space map
(:func:`room_scan`, :func:`room_of_image`).

The object table is rebuilt at open in one pass over the disk's page
images, reading each slot directory and caching nothing.  The walk it
replaced, which fetched and unpinned every page through the buffer
pool, is kept here as its reference (:func:`rebuild_by_walk`, and
:func:`table_by_walk` to open a store with it).
"""

from contextlib import contextmanager
from unittest.mock import patch

from repro.storage.log import (
    AbortRecord,
    CheckpointRecord,
    CommitRecord,
    CompensationRecord,
    DecisionRecord,
    DelegateRecord,
    PrepareRecord,
    TakeoverRecord,
    UpdateRecord,
    WorkflowRecord,
)
from repro.storage.objects import ObjectStore
from repro.storage.page import (
    _HEADER,
    _SLOT,
    _TOMBSTONE,
    Page,
    TornPageError,
)
from repro.storage.recovery import RecoveryManager, RecoveryReport
from repro.workflow.records import FINISHED

ANALYSIS_FIELDS = (
    "winners", "losers", "already_aborted", "in_doubt", "in_doubt_votes",
)


def commit_winners(records):
    """The tids ``records`` commit: a commit record names them, or a
    coordinator's commit decision names them as its local members."""
    winners = set()
    for record in records:
        if isinstance(record, CommitRecord):
            winners |= record.committed_tids()
        elif isinstance(record, DecisionRecord) and record.verdict == "commit":
            winners |= record.decided_tids()
    return winners


def analyze_scan(records):
    """The analysis half of a :class:`RecoveryReport`, by full scan."""
    winners = commit_winners(records)
    finished_aborts = set()
    writers = set()
    responsibility = {}
    updates = []
    prepares = []
    for record in records:
        if isinstance(record, AbortRecord):
            finished_aborts.add(record.tid)
        elif isinstance(record, PrepareRecord):
            prepares.append(record)
        elif isinstance(record, CheckpointRecord):
            prepares += record.votes  # still open, from before a truncation
        elif isinstance(record, UpdateRecord):
            writers.add(record.tid)
            responsibility[record.lsn] = record.tid
            updates.append(record)
        elif isinstance(record, DelegateRecord):
            for update in updates:
                if (
                    responsibility[update.lsn] == record.tid
                    and update.oid in record.oids
                ):
                    responsibility[update.lsn] = record.delegatee
            writers.add(record.delegatee)
    responsible_writers = set(responsibility.values()) | writers
    in_doubt = set()
    in_doubt_votes = {}
    for record in prepares:
        undecided = record.prepared_tids() - winners - finished_aborts
        if undecided:
            in_doubt |= undecided
            in_doubt_votes[record.gid] = record
    return RecoveryReport(
        winners=winners,
        losers=responsible_writers - winners - finished_aborts - in_doubt,
        already_aborted=finished_aborts,
        in_doubt=in_doubt,
        in_doubt_votes=in_doubt_votes,
    )


def assert_analysis_matches(report, records):
    """``report`` (from the index) says what a scan of ``records`` says."""
    oracle = analyze_scan(records)
    for name in ANALYSIS_FIELDS:
        assert getattr(report, name) == getattr(oracle, name), name


def named_tids(records):
    """Every transaction a record in ``records`` speaks of (tid 0, the
    null tid of a marker or of a taker's decision, names none)."""
    named = set()
    for record in records:
        named.add(record.tid)
        named.update(getattr(record, "group", ()))
        if isinstance(record, DelegateRecord):
            named.add(record.delegatee)
        elif isinstance(record, CheckpointRecord):
            for vote in record.votes:  # still open, from before a truncation
                named |= vote.prepared_tids()
    return named - {0}


def assert_tail_analysis_matches(report, tail, history):
    """``report`` — analysed from ``tail``, the decoded end of
    ``history`` — is what a scan of that tail says, and gives every
    transaction the tail speaks of the fate a scan of the whole history
    gives it: no winner turned loser because its commit record was cut
    off, nobody undone who should not be.  (A loser of the whole
    history may be missing from the tail's: one that delegated every
    update away below the restart point has nothing left to undo.)"""
    assert_analysis_matches(report, tail)
    whole, named = analyze_scan(history), named_tids(tail)
    for name in ("winners", "already_aborted", "in_doubt"):
        assert getattr(report, name) == getattr(whole, name) & named, name
    assert report.losers <= whole.losers
    assert report.in_doubt_votes == whole.in_doubt_votes


def history_scan(log):
    """``(records, committed)``: every record of ``log``, prefix included,
    with the records its checkpoint markers summarise — a truncation
    discarded them, or they lie below the restart point too — in LSN
    order, each once; and every tid those records or a marker say
    committed."""
    records = log.records()
    committed = commit_winners(records)
    by_lsn = {record.lsn: record for record in records}
    for record in records:
        if isinstance(record, CheckpointRecord):
            committed.update(record.committed)
            for kept in record.records:
                by_lsn.setdefault(kept.lsn, kept)
    return [by_lsn[lsn] for lsn in sorted(by_lsn)], committed


def group_evidence_scan(log):
    """``(claims, decisions, votes)``, each gid -> its newest takeover
    claim, decision and vote, by a type walk of :func:`history_scan`:
    how a site's restart folded its evidence before the log's index
    kept it."""
    claims, decisions, votes = {}, {}, {}
    kept = {TakeoverRecord: claims, DecisionRecord: decisions, PrepareRecord: votes}
    for record in history_scan(log)[0]:
        latest = kept.get(type(record))
        if latest is not None:
            latest[record.gid] = record
    return claims, decisions, votes


def workflows_scan(log):
    """``log.workflows()`` and ``log.max_wid_value()`` by a walk of
    :func:`history_scan`: each execution's records — its ``finished``
    one alone once it has one — and which tids they name committed."""
    records, committed = history_scan(log)
    runs, highest = {}, 0
    for record in records:
        if isinstance(record, WorkflowRecord):
            highest = max(highest, record.wid)
            if record.kind == FINISHED:
                runs[record.wid] = [record]
            else:
                runs.setdefault(record.wid, []).append(record)
    kept = sorted(
        (record for run in runs.values() for record in run),
        key=lambda record: record.lsn,
    )
    named = {record.tid for record in kept if record.tid}
    return (kept, named & committed), highest


def open_votes_scan(log):
    """The votes with a tid that has no outcome in ``log``'s tail, in
    LSN order: every prepare record there, filtered the way restart once
    filtered each of them — and every vote a marker there carries from
    below the tail, past a truncation, at or above the restart point
    (which stays below every vote still pending)."""
    tail = log.records()[log.base:]
    winners = commit_winners(tail)
    aborted = {record.tid for record in tail if isinstance(record, AbortRecord)}
    votes = {record.lsn: record for record in tail if isinstance(record, PrepareRecord)}
    for record in tail:
        if isinstance(record, CheckpointRecord):
            for vote in record.votes:
                if vote.lsn >= log.device.point:
                    votes.setdefault(vote.lsn, vote)
    return [
        votes[lsn] for lsn in sorted(votes)
        if votes[lsn].prepared_tids() - winners - aborted
    ]


def directory_scan(segments):
    """oid value → index of the first segment holding an image of it."""
    directory = {}
    for index, segment in enumerate(segments):
        for record in segment.records():
            if isinstance(record, (UpdateRecord, CompensationRecord)):
                directory.setdefault(record.oid.value, index)
    return directory


def max_tid_value_scan(log):
    """Full-scan reference implementation of ``log.max_tid_value()``."""
    highest = 0
    for record in log.records():
        highest = max(highest, record.tid.value)
        if isinstance(record, (CommitRecord, PrepareRecord, DecisionRecord)):
            for member in record.group:
                highest = max(highest, member.value)
        elif isinstance(record, DelegateRecord):
            highest = max(highest, record.delegatee.value)
        elif isinstance(record, CheckpointRecord):
            # The summary vouches for the records a truncation discarded.
            for active in (*record.active, record.max_tid or 0):
                highest = max(highest, int(active))
    return highest


def updates_by_scan(log, tid):
    """Full-scan reference implementation of ``log.updates_by(tid)``."""
    responsible = {}
    mine = []
    for record in log.records():
        if isinstance(record, UpdateRecord):
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


def live_bytes_scan(page):
    """Bytes ``page``'s live slots hold, by a walk of its directory."""
    return sum(
        length for offset, length, __ in page._slots if offset != _TOMBSTONE
    )


def unused_scan(page):
    """Bytes of ``page`` that neither header, directory nor a live
    object holds, by a walk: what compaction would leave free."""
    return (
        page.page_size - _HEADER.size - len(page._slots) * _SLOT.size
        - live_bytes_scan(page)
    )


def room_scan(page):
    """What the next insert on ``page`` could store, by a walk of its
    directory: :func:`unused_scan`, less a new directory entry unless a
    tombstone is there to reuse."""
    tombstoned = first_tombstone_scan(page) is not None
    return unused_scan(page) - (0 if tombstoned else _SLOT.size)


def room_of_image(image, page_size, page_id):
    """:func:`room_scan` of a page image, decoded whole."""
    return room_scan(Page.from_bytes(image, page_size, page_id))


def ids_live_twice(stack):
    """``{id value: [page ids]}`` for every id live in more than one
    page directory of a shard, by a walk of each page's current image —
    the cached frame's, or else the disk's."""
    disk, pages = stack.disk, {}
    for page_id in disk.page_ids():
        frame = stack.pool.frame_for(page_id)
        page = frame.page if frame is not None else Page.from_bytes(
            disk.read_page(page_id), disk.page_size, page_id
        )
        for __, oid_value, __ in page.items():
            pages.setdefault(oid_value, []).append(page_id)
    return {oid: ids for oid, ids in pages.items() if len(ids) > 1}


def first_tombstone_scan(page):
    """The slot ``insert`` reuses, by a walk of ``page``'s directory: the
    lowest-numbered tombstone, or ``None``."""
    return next(
        (
            slot
            for slot, (offset, __, __) in enumerate(page._slots)
            if offset == _TOMBSTONE
        ),
        None,
    )


def replay_every_image(records, above):
    """What step-for-step redo installs: every update and compensation
    record of ``records`` above LSN ``above``, in order."""
    return [
        record
        for record in records
        if isinstance(record, (UpdateRecord, CompensationRecord))
        and record.lsn.value > above
    ]


def redo_span(log):
    """What redo reads of ``log`` by a scan: its tail above the mark —
    or, under a void mark over a prefix, every record."""
    if not log.redo_lsn and log.base:
        return log.records()
    return log._decoded[log._first_above(log.redo_lsn) :]


def redo_records_scan(log):
    """``log.redo_records()`` by one backward pass over
    :func:`redo_span`: the newest image per object, in LSN order, and
    how many older images there they stand for."""
    newest, images = {}, 0
    for record in reversed(redo_span(log)):
        if isinstance(record, (UpdateRecord, CompensationRecord)):
            images += 1
            newest.setdefault(record.oid, record)
    return list(reversed(newest.values())), images - len(newest)


def images_to_replay(segments):
    """:func:`replay_every_image` of each segment's decoded tail above
    its own mark, merged by LSN (a flat log is one segment)."""
    images = [
        record
        for segment in segments
        for record in replay_every_image(segment._decoded, segment.redo_lsn)
    ]
    images.sort(key=lambda record: record.lsn.value)
    return images


@contextmanager
def redo_by_replay():
    """Restart redoes :func:`images_to_replay`, one install each, as
    ``RecoveryManager._redo`` did until PR 23; ``report.redone`` counts
    the installs."""
    original = RecoveryManager._redo

    def replay(self, report):
        report.redo_from = self.log.redo_lsn
        for record in images_to_replay(
            getattr(self.log, "segments", [self.log])
        ):
            self.store.install(record.oid, record.after)
            report.redone += 1

    RecoveryManager._redo = replay
    try:
        yield
    finally:
        RecoveryManager._redo = original


def rebuild_by_walk(objects):
    """``ObjectStore._rebuild_table`` as a walk of the pool: every page
    fetched (a ``Page`` decoded, a frame admitted, the clock turned),
    its live slots read and its room walked (:func:`room_scan`), and
    unpinned; a torn page quarantined."""
    with objects._lock:
        objects.pool.dropped = False
        objects._locations.clear()
        objects._room.clear()
        for page_id in objects.pool.disk.page_ids():
            try:
                frame = objects.pool.fetch(page_id)
            except TornPageError:
                objects._quarantine(page_id)
                continue
            try:
                for slot, oid_value, __ in frame.page.items():
                    objects._locations[oid_value] = (page_id, slot)
                objects._room[page_id] = room_scan(frame.page)
            finally:
                objects.pool.unpin(page_id)
        objects._most = max(objects._room.values(), default=0)


def table_by_walk():
    """Every object table opened or refreshed meanwhile is rebuilt by
    :func:`rebuild_by_walk`."""
    return patch.object(ObjectStore, "_rebuild_table", rebuild_by_walk)
