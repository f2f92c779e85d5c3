"""Property: the log's index of votes and group evidence is what a scan says.

A site's restart reads each global group's newest takeover claim,
decision and vote off the log's index (``group_evidence()``), and
recovery's in-doubt loop the votes still open (``analysis()[2]``): those
with a tid that has no outcome in the log.  Hypothesis generates
histories of votes (an anchor tid and its local group members),
commits, aborts, commit and abort decisions, takeover claims and
updates, spread over one or two segments, with checkpoints that move the
restart point, flushes, power cuts with ``resync``, ``drop_volatile``
and reopens — over memory and file devices.  After every step each
segment's evidence equals :func:`scan_oracle.group_evidence_scan` (a
type walk of every record, prefix included), its open votes
:func:`scan_oracle.open_votes_scan`, and the merged analysis the
segments' scans in LSN order.
"""

import os
import tempfile
from operator import attrgetter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.ids import ObjectId, Tid
from repro.storage.log import FileLogDevice, MemoryLogDevice, WriteAheadLog
from repro.storage.segmented import (
    LsnSequencer,
    _analysis,
    move_restart_point,
    open_at_highest,
)
from tests.storage.scan_oracle import group_evidence_scan, open_votes_scan

MAX_EXAMPLES = 600 if os.environ.get("CHAOS_BUDGET") == "long" else 100

segment = st.integers(0, 1)
tid = st.integers(1, 6)
members = st.lists(tid, max_size=2, unique=True)
gid = st.integers(1, 4)
verdict = st.sampled_from(["commit", "abort"])
step = st.one_of(
    st.tuples(st.just("prepare"), segment, tid, members, gid),
    st.tuples(st.just("prepare"), segment, tid, members, gid),
    st.tuples(st.just("commit"), segment, tid, members),
    st.tuples(st.just("abort"), segment, tid),
    st.tuples(st.just("abort"), segment, tid),
    st.tuples(st.just("decide"), segment, tid, gid, verdict, members),
    st.tuples(st.just("takeover"), segment, gid, verdict),
    st.tuples(st.just("update"), segment, tid),
    st.tuples(st.just("checkpoint")),
    st.tuples(st.just("checkpoint")),
    st.tuples(st.just("flush"), segment),
    st.tuples(st.just("crash")),
    st.tuples(st.just("drop_volatile")),
    st.tuples(st.just("reopen")),
)


def assert_index_is_the_scan(segments):
    for log in segments:
        assert log.group_evidence() == group_evidence_scan(log)
        assert log.analysis()[2] == open_votes_scan(log)
    scanned = [vote for log in segments for vote in open_votes_scan(log)]
    assert _analysis(segments)[2] == sorted(scanned, key=attrgetter("lsn"))


class _History:
    """One log of ``n`` segments, driven step by step."""

    def __init__(self, n, directory=None):
        self.paths = None
        if directory is not None:
            self.paths = [directory / f"wal{i}" for i in range(n)]
        self.devices = [self._device(i) for i in range(n)]
        self._open()
        self.epoch = 0

    def _device(self, index):
        if self.paths is None:
            return MemoryLogDevice()
        return FileLogDevice(self.paths[index])

    def _open(self):
        self.segments = [WriteAheadLog(device) for device in self.devices]
        if len(self.segments) > 1:
            sequencer = LsnSequencer()
            for log in self.segments:
                log.join(sequencer)
            open_at_highest(self.segments)

    def close(self):
        for device in self.devices:
            device.close()

    def apply(self, op):
        kind, logs = op[0], self.segments
        log = logs[op[1] % len(logs)] if len(op) > 1 else None
        if kind == "prepare":
            __, __, anchor, group, number = op
            log.log_prepare(
                Tid(anchor), group=[Tid(t) for t in group if t != anchor],
                gid=number, coordinator="c", sites=("c", "p"),
            )
        elif kind == "commit":
            log.log_commit(Tid(op[2]), group=[Tid(t) for t in op[3]])
        elif kind == "abort":
            log.log_abort(Tid(op[2]))
        elif kind == "decide":
            __, __, anchor, number, verdict_, group = op
            log.log_decision(
                Tid(anchor), number, verdict_,
                group=[Tid(t) for t in group], participants=("p",),
            )
        elif kind == "takeover":
            self.epoch += 1
            log.log_takeover(op[2], self.epoch, "c", op[3], votes=("p:prepared",))
        elif kind == "update":
            log.log_update(Tid(op[2]), ObjectId(op[2]), b"b", b"a")
        elif kind == "checkpoint":
            marks = [segment_.last_lsn for segment_ in logs]
            markers = [
                segment_.log_checkpoint((), mark)
                for segment_, mark in zip(logs, marks)
            ]
            move_restart_point(logs, markers)
        elif kind == "flush":
            log.flush()
        elif kind == "crash":
            for segment_ in logs:
                segment_.device.crash()
                segment_.resync()
        elif kind == "drop_volatile":
            for segment_ in logs:
                segment_.drop_volatile()
        else:  # reopen: a new log over what the devices hold
            for segment_ in logs:
                segment_.device.crash()
            if self.paths is not None:
                self.close()
                self.devices = [self._device(i) for i in range(len(logs))]
            self._open()
        assert_index_is_the_scan(self.segments)


def _run(history, steps):
    for op in steps:
        history.apply(op)


_SEGMENTS = st.sampled_from([1, 2])


class TestTheIndexIsTheScan:
    @given(steps=st.lists(step, max_size=40), n=_SEGMENTS)
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_in_memory(self, steps, n):
        _run(_History(n), steps)

    @given(steps=st.lists(step, max_size=30), n=_SEGMENTS)
    @settings(max_examples=MAX_EXAMPLES // 4, deadline=None)
    def test_on_files(self, steps, n):
        with tempfile.TemporaryDirectory() as directory:
            history = _History(n, Path(directory))
            try:
                _run(history, steps)
            finally:
                history.close()


# A vote of Tid 1 for {1, 2}; Tid 1 aborts and Tid 2 commits alone; a
# takeover claim and a commit decision; a checkpoint that moves the
# restart point above all of it, so the evidence lies in the prefix; an
# open vote above it; a power cut and a reopen.
_EVERY_KIND = [
    ("prepare", 0, 1, [2], 1),
    ("update", 1, 2),
    ("abort", 0, 1),
    ("commit", 1, 2, []),
    ("takeover", 0, 2, "abort"),
    ("decide", 1, 3, 2, "commit", []),
    ("checkpoint",),
    ("prepare", 1, 4, [], 3),
    ("crash",),
    ("reopen",),
]


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("on_files", [False, True])
def test_one_history_takes_every_step(tmp_path, n, on_files):
    history = _History(n, tmp_path if on_files else None)
    try:
        _run(history, _EVERY_KIND)
        logs = history.segments
        # The evidence below the restart point was read back.
        assert all(log.base > 0 for log in logs)
        claims, decisions, votes = (
            {gid_ for log in logs for gid_ in log.group_evidence()[kind]}
            for kind in range(3)
        )
        assert (claims, decisions, votes) == ({2}, {2}, {1, 3})
        assert [vote.gid for vote in _analysis(logs)[2]] == [3]
    finally:
        history.close()
