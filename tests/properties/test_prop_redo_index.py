"""Property: redo's newest images, read off the log's index, are the scan's.

``WriteAheadLog.redo_records()`` answers from the attribution index:
each object's newest update or compensation, kept as records arrive,
and the ascending LSNs of all of them, bisected at the mark for the
count of older images those stand for.  ``scan_oracle.redo_records_scan``
is the backward pass over what redo reads that it replaced.

Generated histories — creates, writes, deletes, aborts and savepoint
rollbacks (compensations), delegations, group commits and votes,
checkpoints (sharp ones truncate the log, the rest move its restart
point: an ``open_at`` cut), a checkpoint whose mark is read before
another update is appended and its marker after, void marks over a
prefix and over a whole log, and power cuts that resync the log, drop
its volatile tail through ``drop_volatile`` or, on files, reopen it —
run on one and two segments, over memory and file devices.  After
every step and every restart, each segment and the merged log must
answer as the scan does: the same records in LSN order — the very
objects, unless a void mark over a prefix makes both re-read it — and
the same superseded count; and the ids redo may install must be the ones
the scan reads.
"""

import operator
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.log import (
    CheckpointRecord,
    CompensationRecord,
    UpdateRecord,
)
from repro.storage.segmented import move_restart_point
from tests.chaos.mutations import redo_index_skips_compensations
from tests.properties.test_prop_recovery import (
    _MAX_EXAMPLES,
    _History,
    _op,
    _pick,
    _slot,
    _value,
)
from tests.storage.scan_oracle import redo_records_scan

_redo_op = st.one_of(
    _op,
    st.tuples(st.just("late"), _slot, _pick, _value),
    st.tuples(st.just("void")),
    st.tuples(st.just("restart"), st.sampled_from(["resync", "drop", "keep"])),
)


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


class _RedoHistory(_History):
    """:class:`_History`'s operations, plus a checkpoint with an update
    between its mark and its marker, a void marker, and restarts that
    only recover; every step ends with the index checked against the
    scan.  ``seen`` names the situations a history reached."""

    def __init__(self, n_shards, directory=None):
        self.seen = set()
        super().__init__(n_shards, None, directory)

    def check(self):
        segments = self._segments()
        expected = assert_redo_is_the_scan(segments)
        if len(segments) > 1:
            records, superseded = self.storage.log.redo_records()
            assert (records, superseded) == expected
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
        else:
            if kind == "checkpoint" and op[1] and not self.tids:
                self.seen.add("truncate")
            super().apply(op)
        self.check()

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
        alone; on files a resync is a reopen of the files."""
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
        self.storage.recover()
        self._forget_the_live()


def _run(history, ops):
    history.check()
    for op in ops:
        history.apply(op)
    history.restart("resync")
    history.check()


_SHARDS = st.sampled_from([None, 2])


class TestRedoIndexIsTheScan:
    @given(ops=st.lists(_redo_op, min_size=1, max_size=40), n_shards=_SHARDS)
    @settings(max_examples=_MAX_EXAMPLES, deadline=None)
    def test_in_memory(self, ops, n_shards):
        _run(_RedoHistory(n_shards), ops)

    @given(ops=st.lists(_redo_op, min_size=1, max_size=30), n_shards=_SHARDS)
    @settings(max_examples=_MAX_EXAMPLES // 2, deadline=None)
    def test_on_files(self, ops, n_shards):
        with tempfile.TemporaryDirectory() as directory:
            history = _RedoHistory(n_shards, Path(directory))
            try:
                _run(history, ops)
            finally:
                history.close()


# One history that reaches every situation the property names: a
# partial rollback, a late update, a sharp checkpoint (truncate), a void
# mark over a whole log (before any checkpoint: the base images a sharp
# one logs lie below its mark, so the log is cut after it) and one over
# a prefix, and every kind of restart, with the restart point moved
# between.
_EVERY_CASE = [
    ("write", 0, 0, b"1" * 4),
    ("void",),
    ("write", 0, 0, b"2" * 4),
    ("rollback", 0, 1),
    ("commit", 0, None),
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
    "drop",
}


@pytest.mark.parametrize("n_shards", [None, 2])
@pytest.mark.parametrize("on_files", [False, True])
def test_one_history_reaches_every_case(tmp_path, n_shards, on_files):
    history = _RedoHistory(n_shards, tmp_path if on_files else None)
    try:
        _run(history, _EVERY_CASE)
    finally:
        history.close()
    assert history.seen == _CASES


@pytest.mark.parametrize("n_shards", [None, 2])
def test_an_index_that_skips_compensations_is_caught(n_shards):
    """The smallest history that needs the compensation: an update
    rolled back to before it, by a transaction that then commits."""
    history = _RedoHistory(n_shards)
    with redo_index_skips_compensations(), pytest.raises(AssertionError):
        for op in [
            ("write", 0, 0, b"1" * 4),
            ("rollback", 0, 0),
            ("commit", 0, None),
        ]:
            history.apply(op)

