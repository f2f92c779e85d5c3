"""Property: the log's index is one fold, and a fresh open rebuilds it.

``WriteAheadLog`` folds every record into one index as it arrives — one
handler per record type, dispatched through ``_HANDLERS`` — and each
checkpoint marker carries a summary of that index (``CheckpointRecord``:
the highest tid and wid, the open votes, each global group's newest
evidence, each workflow execution, and the committed tids they name).
A log opened at its restart point, or past a truncation, folds its tail,
and the summary there vouches for the rest.  So at every moment the
index the live log kept must be the one a log freshly opened on the same
devices builds, and every query must answer as its scan in
``tests/storage/scan_oracle.py`` does.

Generated histories — creates, writes, deletes, aborts and savepoint
rollbacks (compensations), delegations, group commits, votes and their
decisions, takeover claims and decisions of either verdict, durable
workflow transitions that name their step transactions, checkpoints
(sharp ones truncate the log, the rest move its restart point), a
checkpoint whose mark is read before another update is appended and its
marker after, void marks over a prefix and over a whole log, markers
whose flush is lied about, and power cuts that resync the log, drop its
volatile tail through ``drop_volatile`` or, on files, reopen it — run on
one and two segments, over memory and file devices.  After every step,
each segment's index equals a fresh open's, and the highest tid, the
group evidence, the open votes, the workflow executions and the highest
wid, the active transactions' updates and redo's newest images (per
segment and merged) equal their scans; after every restart the
recovery report's analysis is its tail's scan, and gives every
transaction the fate the whole history gives it.
"""

import operator
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.ids import Tid
from repro.storage.log import (
    CheckpointRecord,
    CompensationRecord,
    FileLogDevice,
    MemoryLogDevice,
    UpdateRecord,
    WriteAheadLog,
)
from repro.storage.segmented import (
    LsnSequencer,
    move_restart_point,
    open_at_highest,
)
from repro.workflow import records as wrecords
from tests.chaos.mutations import redo_index_skips_compensations
from tests.properties.test_prop_recovery import (
    _MAX_EXAMPLES,
    _History,
    _op,
    _pick,
    _slot,
    _value,
)
from tests.storage.scan_oracle import (
    assert_tail_analysis_matches,
    group_evidence_scan,
    history_scan,
    max_tid_value_scan,
    open_votes_scan,
    redo_records_scan,
    updates_by_scan,
    workflows_scan,
)

_KINDS = (
    wrecords.STARTED, wrecords.STEP_ATTEMPT, wrecords.STEP_ATTEMPT,
    wrecords.SIGNAL, wrecords.FINISHED,
)
_gid = st.integers(1, 3)
_index_op = st.one_of(
    _op,
    st.tuples(st.just("late"), _slot, _pick, _value),
    st.tuples(st.just("void")),
    st.tuples(st.just("restart"), st.sampled_from(["resync", "drop", "keep"])),
    st.tuples(st.just("takeover"), _gid, st.sampled_from(["commit", "abort"])),
    st.tuples(st.just("decide"), _gid, st.sampled_from(["commit", "abort"])),
    st.tuples(
        st.just("workflow"), st.integers(1, 3), st.sampled_from(_KINDS), _slot
    ),
)

# What the index is: every field a record handler or a summary folds.
INDEX = (
    "base", "_decoded", "redo_lsn", "_max_tid",
    "_updates_by_tid", "_delegation_parties", "_winners",
    "_finished_aborts", "_open_votes", "_votes_of", "_evidence",
    "_newest", "_image_lsns", "_executions", "_finished", "_carried",
)


def index_of(log):
    return {name: getattr(log, name) for name in INDEX}


def assert_redo_is_the_scan(segments):
    """Every segment's ``redo_records()`` is its scan's, and so is the
    merge of all of them; ``image_oids()`` names what the scan reads."""
    merged, superseded = [], 0
    for segment in segments:
        scanned, older = redo_records_scan(segment)
        records, count = segment.redo_records()
        assert (records, count) == (scanned, older)
        if segment.redo_lsn or not segment.base:  # the tail's own records
            assert all(map(operator.is_, records, scanned))
        merged += scanned
        superseded += older
        # The index path names every image of the tail, not only those
        # above the mark: what the store's allocator must step over.
        span = (
            segment.records()
            if not segment.redo_lsn and segment.base
            else segment._decoded
        )
        assert segment.image_oids() == {
            r.oid for r in span
            if isinstance(r, (UpdateRecord, CompensationRecord))
        }
    merged.sort(key=lambda record: record.lsn)
    return merged, superseded


def assert_queries_are_the_scans(log, active):
    """Each query of one segment answers as its scan does."""
    assert log.max_tid_value() == max_tid_value_scan(log)
    *evidence, committed = log.group_evidence()
    assert tuple(evidence) == group_evidence_scan(log)
    assert log.analysis()[2] == open_votes_scan(log)
    # A vote resolves as the history says: its commit is in the tail,
    # or a marker carried it.
    won, history_won = log.analysis()[0] | committed, history_scan(log)[1]
    for vote in evidence[2].values():
        for tid in vote.prepared_tids():
            assert (tid in won) == (tid in history_won), (vote, tid)
    executions, highest = workflows_scan(log)
    assert log.workflows() == executions
    assert log.max_wid_value() == highest
    for tid in active:
        assert log.updates_by(tid) == updates_by_scan(log, tid)


class _IndexHistory(_History):
    """:class:`_History`'s operations, plus a checkpoint with an update
    between its mark and its marker, a void marker, restarts that only
    recover, takeover claims, decisions and workflow transitions; every
    step ends with :meth:`check`.  ``seen`` names the situations a
    history reached."""

    def __init__(self, n_shards, directory=None):
        self.seen = set()
        self.epoch = 0
        self.finished = set()  # wids no transition may follow
        super().__init__(n_shards, None, directory)

    def check(self):
        segments = self._segments()
        for live, fresh in zip(segments, self._reopened()):
            assert index_of(live) == index_of(fresh)
        for segment in segments:
            assert_queries_are_the_scans(segment, self.tids.values())
        expected = assert_redo_is_the_scan(segments)
        if len(segments) > 1:
            records, superseded = self.storage.log.redo_records()
            assert (records, superseded) == expected
        self._note(segments)

    def _reopened(self):
        """Logs freshly opened on copies of the devices, as a storage
        manager opens them."""
        if self.directory is None:
            devices = []
            for segment in self._segments():
                devices.append(MemoryLogDevice())
                devices[-1].restore(segment.device.snapshot())
            return self._opened(devices)
        with tempfile.TemporaryDirectory() as copy:
            devices = []
            for segment in self._segments():
                segment.device._file.flush()
                path = Path(segment.device.path)
                for name in (path, Path(f"{path}.restart")):
                    if name.exists():
                        shutil.copy(name, Path(copy) / name.name)
                devices.append(FileLogDevice(Path(copy) / path.name))
            try:
                return self._opened(devices)
            finally:
                for device in devices:
                    device.close()

    @staticmethod
    def _opened(devices):
        logs = [WriteAheadLog(device) for device in devices]
        if len(logs) > 1:
            sequencer = LsnSequencer()
            for log in logs:
                log.join(sequencer)
            open_at_highest(logs)
        return logs

    def _note(self, segments):
        for segment in segments:
            if segment.base:
                self.seen.add("open_at")
            if any(isinstance(r, CompensationRecord) for r in segment._decoded):
                self.seen.add("compensation")
            if not segment.redo_lsn:
                marked = any(
                    isinstance(r, CheckpointRecord) and not r.redo_lsn
                    for r in segment._decoded
                )
                if marked:
                    self.seen.add("void-prefix" if segment.base else "void")
            executions, finished = segment._executions, segment._finished
            below = segment._decoded[0].lsn if segment._decoded else 0
            if any(
                record.lsn < below
                for kept in (*executions.values(), finished)
                for record in kept.values()
            ):
                self.seen.add("workflow-summarised")

    def apply(self, op):
        kind = op[0]
        if kind == "late":
            self._late_checkpoint(*op[1:])
        elif kind == "void":  # as a torn page's quarantine writes it
            for segment in self._segments():
                segment.log_checkpoint((), redo_lsn=0)
        elif kind == "restart":
            self.restart(op[1])
        elif kind == "crash":
            self.restart("keep" if op[1] else "resync")
        elif kind == "takeover":
            self.epoch += 1
            self.storage.log_takeover(op[1], self.epoch, "c", op[2])
        elif kind == "decide":
            self.storage.log_decision(Tid(0), op[1], op[2], participants=("p",))
        elif kind == "workflow":
            self._transition(*op[1:])
        else:
            if kind == "checkpoint" and op[1] and not self.tids:
                self.seen.add("truncate")
            super().apply(op)
        self.check()

    def _transition(self, wid, kind, slot):
        """A workflow transition; an attempt names the slot's active
        transaction, whose commit decides the step."""
        if wid in self.finished:
            return
        tid = Tid(0)
        if kind == wrecords.STEP_ATTEMPT:
            if slot not in self.tids:
                return
            tid = self.tids[slot]
        if kind == wrecords.FINISHED:
            self.finished.add(wid)
        self.storage.log_workflow(wid, kind, tid=tid)

    def _late_checkpoint(self, slot, choice, value):
        """``StorageManager.checkpoint`` with an update landing after
        the marks were read and the pools flushed, before the markers:
        its image lies above the mark and below the marker."""
        segments = self._segments()
        marks = [segment.last_lsn for segment in segments]
        for stack in self._stacks():
            stack.pool.flush_all()
        oid = self._target(slot, choice)
        if oid is not None:
            self.storage.write_object(self._begin(slot), oid, value)
            self.seen.add("late")
        active = sorted(self.tids.values())
        markers = [
            segment.log_checkpoint(active, mark)
            for segment, mark in zip(segments, marks)
        ]
        move_restart_point(segments, markers)

    def restart(self, how):
        """A power cut and the restart after it, checked before and
        after recovery runs: the log resynced from what its device kept
        (all of it, with ``keep``), or cut back by ``drop_volatile``
        alone; on files a resync is a reopen of the files.  Recovery's
        analysis is its tail's scan, and the whole history's."""
        if how == "keep":
            for segment in self._segments():
                segment.device._advance_durable()
        if how == "drop":
            for stack in self._stacks():
                stack.pool.drop_all()
            self.storage.log.drop_volatile()
            self.seen.add("drop")
        else:
            self.storage.crash()
            if self.directory is not None:
                self.close()
                self.storage = self._open()
        self.check()
        segments = self._segments()
        tail = sorted(
            (record for segment in segments for record in segment._decoded),
            key=lambda record: record.lsn.value,
        )
        history = self.storage.log.records()
        assert_tail_analysis_matches(self.storage.recover(), tail, history)
        self._forget_the_live()


def _run(history, ops):
    history.check()
    for op in ops:
        history.apply(op)
    history.restart("resync")
    history.check()


_SHARDS = st.sampled_from([None, 2])


class TestTheIndexIsOneFold:
    @given(ops=st.lists(_index_op, min_size=1, max_size=40), n_shards=_SHARDS)
    @settings(max_examples=_MAX_EXAMPLES, deadline=None)
    def test_in_memory(self, ops, n_shards):
        _run(_IndexHistory(n_shards), ops)

    @given(ops=st.lists(_index_op, min_size=1, max_size=30), n_shards=_SHARDS)
    @settings(max_examples=_MAX_EXAMPLES // 2, deadline=None)
    def test_on_files(self, ops, n_shards):
        with tempfile.TemporaryDirectory() as directory:
            history = _IndexHistory(n_shards, Path(directory))
            try:
                _run(history, ops)
            finally:
                history.close()


# One history that reaches every situation the property names: a
# partial rollback, a late update, a sharp checkpoint (truncate) with a
# workflow execution in flight and a group's evidence behind it, a void
# mark over a whole log (before any checkpoint: the base images a sharp
# one logs lie below its mark, so the log is cut after it) and one over
# a prefix, and every kind of restart, with the restart point moved
# between.
_EVERY_CASE = [
    ("write", 0, 0, b"1" * 4),
    ("void",),
    ("workflow", 1, wrecords.STARTED, 0),
    ("workflow", 1, wrecords.STEP_ATTEMPT, 0),
    ("write", 0, 0, b"2" * 4),
    ("rollback", 0, 1),
    ("commit", 0, None),
    ("takeover", 1, "commit"),
    ("decide", 1, "commit"),
    ("checkpoint", True, False),
    ("void",),
    ("write", 1, 1, b"3" * 4),
    ("late", 2, 2, b"4" * 2200),
    ("commit", 1, None),
    ("commit", 2, None),
    ("checkpoint", False, False),
    ("write", 3, 0, b"5" * 4),
    ("void",),
    ("crash", False),
    ("write", 0, 1, b"6" * 9000),
    ("abort", 0),
    ("restart", "drop"),
    ("write", 1, 2, b"7" * 4),
    ("crash", True),
]
_CASES = {
    "compensation", "late", "truncate", "void", "void-prefix", "open_at",
    "drop", "workflow-summarised",
}


@pytest.mark.parametrize("n_shards", [None, 2])
@pytest.mark.parametrize("on_files", [False, True])
def test_one_history_reaches_every_case(tmp_path, n_shards, on_files):
    history = _IndexHistory(n_shards, tmp_path if on_files else None)
    try:
        _run(history, _EVERY_CASE)
        # What the truncation discarded, the summary kept: the
        # execution in flight, and that its step committed.
        records, committed = history.storage.log.workflows()
        assert [r.kind for r in records] == [
            wrecords.STARTED, wrecords.STEP_ATTEMPT,
        ]
        assert committed == {records[1].tid}
        assert history.storage.log.max_wid_value() == 1
    finally:
        history.close()
    assert history.seen == _CASES


@pytest.mark.parametrize("n_shards", [None, 2])
def test_an_index_that_skips_compensations_is_caught(n_shards):
    """The smallest history that needs the compensation: an update
    rolled back to before it, by a transaction that then commits."""
    history = _IndexHistory(n_shards)
    with redo_index_skips_compensations(), pytest.raises(AssertionError):
        for op in [
            ("write", 0, 0, b"1" * 4),
            ("rollback", 0, 0),
            ("commit", 0, None),
        ]:
            history.apply(op)
