"""The restart point: the log in memory is its tail, at open and live.

A checkpoint whose marker is durable moves the log's restart point up —
the lowest LSN restart can still need — hands the device a *hint* naming
the record there, and drops what lies below it from memory.  A reopen
starts decoding at the hint.  These tests hold the two halves to each
other (a running log after a checkpoint *is* what a second handle
builds), show what pins the point, and show that the hint is a bound and
never evidence: one that fails any check is discarded and the open
starts at 0, through the same code.
"""

import os
import zlib

import pytest

from repro.common.errors import StorageError
from repro.common.ids import Lsn, ObjectId, Tid
from repro.core.manager import TransactionManager
from repro.storage.log import (
    _HINT,
    _U32,
    CheckpointRecord,
    FileLogDevice,
    MemoryLogDevice,
    WriteAheadLog,
    encode_record,
)
from repro.storage.segmented import move_restart_point
from repro.storage.store import StorageManager
from tests.chaos.mutations import restart_point_forgets_max_tid
from tests.storage.scan_oracle import max_tid_value_scan

DEVICES = pytest.mark.parametrize("kind", ["memory", "file"])


def _open(tmp_path, kind, device=None):
    """A log over a new device — or, given one, a second handle on what
    it holds (the same list, or the same file)."""
    if kind == "file":
        device = FileLogDevice(tmp_path / "wal.log")
    return WriteAheadLog(device if device is not None else MemoryLogDevice())


def _write(log, tid, oid_value, value=b"v"):
    oid = ObjectId(oid_value)
    return log.log_update(Tid(tid), oid, None, value)


def _checkpoint(log, redo_lsn=None):
    """What ``StorageManager.checkpoint`` does to a log of its own (no
    pool here): the marker, then the restart point moved."""
    if redo_lsn is None:
        redo_lsn = log.last_lsn
    marker = log.log_checkpoint((), redo_lsn=redo_lsn)
    move_restart_point([log], [marker])
    return marker


def _busy(log):
    """A history with every kind of thing a restart point has to respect:
    finished transactions, an active writer, a delegation out of an
    aborted transaction into an active one, an undecided vote."""
    _write(log, 1, 1)
    log.log_commit(Tid(1))
    _write(log, 2, 2)  # stays active
    _write(log, 3, 3)
    _write(log, 3, 4)
    log.log_delegate(Tid(3), Tid(4), [ObjectId(3)])
    log.log_abort(Tid(3))
    _write(log, 5, 5)
    log.log_prepare(Tid(5), gid=5, coordinator="c", sites=("c", "p"))
    _write(log, 9, 6)
    log.log_commit(Tid(9), group=(Tid(8),))


def _state(log):
    return {
        "decoded": log._decoded,
        "base": log.base,
        "updates": log._updates_by_tid,
        "winners": log._winners,
        "aborted": log._finished_aborts,
        "votes": log._open_votes,
        "votes_of": log._votes_of,
        "evidence": log._evidence,
        "parties": log._delegation_parties,
        "newest": log._newest,
        "images": log._image_lsns,
        "redo_lsn": log.redo_lsn,
        "max_tid": log.max_tid_value(),
        "lsns": (log.last_lsn, log.durable_lsn, log.restart_from),
    }


class TestLiveIsOpen:
    """(b) After a checkpoint a running log holds what an open builds."""

    @DEVICES
    def test_after_a_checkpoint_the_running_log_is_what_a_reopen_builds(
        self, tmp_path, kind
    ):
        log = _open(tmp_path, kind)
        _busy(log)
        total = len(log)
        _checkpoint(log)
        # Pinned by Tid(2)'s first update: Tid(1)'s two records go.
        assert (log.base, len(log)) == (2, total + 1 - 2)
        assert Tid(1) not in log._winners
        assert _state(_open(tmp_path, kind, log.device)) == _state(log)

        # Tid(2) and the vote settle; Tid(4) — holding the update Tid(3)
        # delegated to it — now pins the point alone.
        log.log_commit(Tid(2))
        log.log_decision(Tid(5), 5, "commit")
        _write(log, 10, 7)
        _checkpoint(log)
        assert log.restart_from == log.updates_by(Tid(4))[0].lsn.value == 4
        assert _state(_open(tmp_path, kind, log.device)) == _state(log)

        # Everyone finished: the point is the marker itself.
        log.log_commit(Tid(4))
        log.log_commit(Tid(10))
        marker = _checkpoint(log)
        assert (len(log), log.restart_from) == (1, marker.lsn.value)
        assert log.analysis() == (set(), set(), [], set())
        assert log.max_tid_value() == 10
        assert _state(_open(tmp_path, kind, log.device)) == _state(log)

    @DEVICES
    def test_the_running_log_stops_growing_with_history(self, tmp_path, kind):
        log = _open(tmp_path, kind)
        sizes = set()
        for round_ in range(1, 6):
            for tid in range(10 * round_, 10 * round_ + 5):
                _write(log, tid, 1)
                log.log_commit(Tid(tid))
            _checkpoint(log)
            sizes.add((len(log), len(log._winners), len(log._updates_by_tid)))
            assert log.base + len(log) == len(log.records())
        assert sizes == {(1, 0, 0)}

    def test_segments_move_together_to_one_point(self):
        """A cross-shard winner's commit record lives in one segment and
        its images in both: the point is one LSN for the whole log, so
        the record stays as long as any segment keeps an image."""
        store = StorageManager(n_shards=2)
        one = store.create_object(Tid(1), b"a")  # oid 1 -> shard 1
        two = store.create_object(Tid(1), b"b")  # oid 2 -> shard 0
        store.log_commit(Tid(1))
        store.write_object(Tid(2), one, b"held")  # active, shard 1 only
        store.write_object(Tid(3), one, b"a3")
        store.write_object(Tid(3), two, b"b3")
        store.log_commit(Tid(3))  # home: shard 0
        store.checkpoint(active=[Tid(2)])
        held = store.log.updates_by(Tid(2))[0].lsn.value
        assert store.log.restart_from == held
        for shard in store.shards:
            assert shard.log.base > 0
            assert all(r.lsn.value >= held for r in shard.log._decoded)
            assert _state(WriteAheadLog(shard.log.device)) == _state(shard.log)
        # Tid(3) wrote above the point in shard 1; its commit record, in
        # shard 0, is still there to say it won.
        assert Tid(3) in store.shards[0].log._winners
        store.crash()
        report = store.recover()
        assert (report.winners, report.losers) == ({Tid(3)}, {Tid(2)})
        assert store.read_object(Tid(0), one) == b"a"  # Tid(3), then undone
        assert store.read_object(Tid(0), two) == b"b3"

    def test_a_segment_with_nothing_below_the_point_needs_no_hint(self):
        """A segment holding only its marker is its own tail: it opens
        there without a hint, beside a segment that has one."""
        store = StorageManager(n_shards=2)
        store.create_object(Tid(1), b"a")  # oid 1 -> shard 1 only
        store.log_commit(Tid(1))
        store.checkpoint()
        idle, busy = (shard.log for shard in store.shards)
        assert (idle.base, idle.device.hint, len(idle)) == (0, None, 1)
        assert (busy.base, len(busy)) == (2, 1)
        store.crash()
        report = store.recover()
        assert (busy.base, report.scanned) == (2, 2)

    def test_a_torn_page_in_one_shard_keeps_every_tail(self):
        """Tid(1) wrote in both shards and committed in shard 0 (home);
        a checkpoint then moved every segment's tail above all of it.
        A torn page in shard 1 voids that segment's mark, and its redo
        reads the segment's prefix, where Tid(1)'s image lies — while
        every segment keeps its tail, across three restarts: the void
        mark just written, still standing, then the point moved by the
        next checkpoint.  No tail holds a record of Tid(1), so no report
        names it: it is neither winner nor loser to an analysis that
        never saw it, and nothing of it is undone."""
        store = StorageManager(n_shards=2)
        far = store.create_object(Tid(1), b"f" * 2200)  # oid 1 -> shard 1
        home = store.create_object(Tid(1), b"h")  # oid 2 -> shard 0
        store.log_commit(Tid(1))
        assert store.footprint_of(Tid(1)) == set()
        store.checkpoint()
        assert [len(shard.log) for shard in store.shards] == [1, 1]
        shard = store.shards[1]
        page_id = shard.objects._locations[far.value][0]
        image = shard.disk.read_page(page_id)
        shard.disk._pages[page_id] = image[:8] + bytes(len(image) - 8)

        def restart():
            store.crash()
            report = store.recover()
            assert not report.losers and report.undone == 0
            assert store.read_object(Tid(0), far) == b"f" * 2200
            assert store.read_object(Tid(0), home) == b"h"
            assert all(shard.log.base > 0 for shard in store.shards)
            return report

        first = restart()
        assert shard.objects.damaged_pages == [page_id]
        assert (first.redo_from, first.redone) == (0, 1)
        again = restart()  # the torn image is gone; the void mark stands
        assert (again.restart_from, again.redone) == (first.restart_from, 1)
        store.checkpoint()
        last = restart()
        assert last.restart_from > first.restart_from
        assert (last.redo_from > 0, last.redone) == (True, 0)


class TestWhatPinsThePoint:
    """One counter-example per term of the minimum."""

    def test_the_redo_mark(self):
        log = WriteAheadLog()
        _write(log, 1, 1)
        log.log_commit(Tid(1))
        mark = log.last_lsn
        _write(log, 2, 2)  # lands while the pool flush runs
        log.log_commit(Tid(2))
        _checkpoint(log, redo_lsn=mark)
        # Tid(2)'s page may have missed the flush: redo needs its update.
        assert log.restart_from == mark + 1
        assert len(log.redo_records()[0]) == 1

    def test_an_unfinished_writer_whatever_the_caller_says_is_active(self):
        log = WriteAheadLog()
        _write(log, 2, 2)
        log.log_commit(Tid(2))
        first = _write(log, 1, 1)
        _write(log, 3, 3)
        log.log_commit(Tid(3))
        _checkpoint(log)  # active: nobody?
        assert log.restart_from == first.lsn.value == 3
        assert log.updates_by(Tid(1)) == [first]

    def test_an_update_delegated_to_an_unfinished_writer(self):
        log = WriteAheadLog()
        _write(log, 1, 2)
        moved = _write(log, 1, 1)
        log.log_delegate(Tid(1), Tid(2), [ObjectId(1)])
        log.log_commit(Tid(1))  # the delegator is done; this update is not
        _checkpoint(log)
        assert log.restart_from == moved.lsn.value == 2
        assert log.updates_by(Tid(2)) == [moved]

    def test_an_undecided_vote_with_nothing_to_undo(self):
        """Dropped, the restarted site would not know it is in doubt."""
        log = WriteAheadLog()
        _write(log, 1, 1)
        log.log_commit(Tid(1))
        vote = log.log_prepare(Tid(2), gid=7, coordinator="c")
        _checkpoint(log)
        assert log.restart_from == vote.lsn.value
        assert WriteAheadLog(log.device).analysis()[2] == [vote]
        log.log_decision(Tid(2), 7, "commit")
        marker = _checkpoint(log)
        assert log.restart_from == marker.lsn.value

    def test_a_marker_that_is_not_durable_moves_nothing(self):
        from repro.chaos.faults import FaultInjector, FaultPlan

        injector = FaultInjector()
        log = WriteAheadLog(MemoryLogDevice(injector=injector))
        _write(log, 1, 1)
        log.log_commit(Tid(1))
        injector.plan = FaultPlan(lose_fsync_at={injector.step_count + 2})
        _checkpoint(log)
        assert injector.lied_fsyncs == 1
        assert (log.base, log.device.hint) == (0, None)


class TestPrefixOnDemand:
    """(d) What lies below the tail is read when asked for."""

    @DEVICES
    def test_records_is_the_full_history_after_a_live_checkpoint(
        self, tmp_path, kind
    ):
        log = _open(tmp_path, kind)
        _busy(log)
        log.log_commit(Tid(2))
        before = log.records()
        marker = _checkpoint(log)
        assert 0 < len(log) < len(before)
        assert log.records() == before + [marker]
        assert log.records(durable_only=True) == before + [marker]
        assert log.max_tid_value() == max_tid_value_scan(log) == 9
        assert _open(tmp_path, kind, log.device).records() == log.records()

    def test_so_is_the_merged_view_of_a_segmented_log(self):
        store = StorageManager(n_shards=2)
        for tid in (1, 2, 3):
            store.create_object(Tid(tid), b"v%d" % tid)
            store.log_commit(Tid(tid))
        before = store.log.records()
        store.checkpoint()
        assert len(store.log) == 2  # one marker per segment
        history = store.log.records()
        assert history[: len(before)] == before
        assert len(history) == len(before) + 2
        assert [r.lsn.value for r in history] == list(range(1, 9))
        assert sum(row["appends"] for row in store.segment_stats()) == 8

    @DEVICES
    def test_a_void_mark_keeps_the_point_and_redo_reads_the_prefix(
        self, tmp_path, kind
    ):
        """The torn-page marker: the page it reset may have held an
        object last written below the restart point, so redo takes the
        newest image of every object in the log — now and at every
        restart until the next real checkpoint — and the point stays."""
        log = _open(tmp_path, kind)
        _busy(log)
        _checkpoint(log)
        base, hint = log.base, log.device.hint
        assert base and len(log.redo_records()[0]) == 0
        log.log_checkpoint((), redo_lsn=0)
        assert (log.base, log.device.hint, log.redo_lsn) == (base, hint, 0)
        assert len(log.redo_records()[0]) == 6
        reopened = _open(tmp_path, kind, log.device)
        assert (reopened.base, len(reopened.redo_records()[0])) == (base, 6)
        _checkpoint(log)
        assert log.base and log.redo_lsn

    @DEVICES
    def test_truncation_clears_the_hint(self, tmp_path, kind):
        log = _open(tmp_path, kind)
        _write(log, 1, 1)
        log.log_commit(Tid(1))
        _checkpoint(log)
        assert log.device.hint is not None
        log.truncate()
        assert (log.base, log.device.hint, len(log.records())) == (0, None, 0)
        assert not os.path.exists(tmp_path / "wal.log.restart")
        marker = _checkpoint(log)
        assert _open(tmp_path, kind, log.device).records() == [marker]


def _sidecar(tmp_path, position, ordinal, lsn):
    raw = _HINT.pack(position, ordinal, lsn)
    (tmp_path / "wal.log.restart").write_bytes(
        raw + _U32.pack(zlib.crc32(raw))
    )


class TestTheHintIsABound:
    """(e) A hint that fails any check: start at 0, and discard it."""

    def _history(self, tmp_path):
        """A closed file log with two checkpoints; its history, its
        last hint and the one before."""
        log = _open(tmp_path, "file")
        _busy(log)
        _checkpoint(log)
        stale = log.device.hint
        log.log_commit(Tid(2))
        log.log_commit(Tid(4))
        log.log_decision(Tid(5), 5, "commit")
        _checkpoint(log)
        history, hint = log.records(), log.device.hint
        assert stale[0] < hint[0]
        log.device.close()
        return history, hint, stale

    def _assert_opens_at_zero(self, tmp_path, history):
        log = _open(tmp_path, "file")
        assert (log.base, log.restart_from, log.device.hint) == (0, 0, None)
        assert log.records() == history == log._decoded
        assert not os.path.exists(tmp_path / "wal.log.restart")
        assert log.max_tid_value() == max_tid_value_scan(log)
        # ... and the next checkpoint writes a good one.
        _checkpoint(log)
        assert log.device.hint is not None
        log.device.close()
        assert _open(tmp_path, "file").base == log.base > 0

    def test_the_hint_and_a_stale_one_both_hold(self, tmp_path):
        history, hint, stale = self._history(tmp_path)
        fresh = _open(tmp_path, "file")
        assert (fresh.base, len(fresh)) == (hint[1], 1)
        assert fresh.records() == history
        fresh.device.close()
        _sidecar(tmp_path, *stale)
        older = _open(tmp_path, "file")
        assert (older.base, older.restart_from) == (stale[1], stale[2])
        assert older.records() == history
        assert older.analysis()[0] == {Tid(2), Tid(4), Tid(5), Tid(8), Tid(9)}
        assert older.max_tid_value() == fresh.max_tid_value() == 9

    @pytest.mark.parametrize("case", [
        "offset past EOF", "offset mid-record", "wrong LSN",
        "ordinal ahead of the file", "empty", "truncated", "garbage",
        "bad checksum",
    ])
    def test_a_sidecar_that_fails_a_check(self, tmp_path, case):
        history, (position, ordinal, lsn), __ = self._history(tmp_path)
        sidecar = tmp_path / "wal.log.restart"
        good = sidecar.read_bytes()
        if case == "offset past EOF":
            _sidecar(tmp_path, position + 10_000, ordinal, lsn)
        elif case == "offset mid-record":
            _sidecar(tmp_path, position - 3, ordinal, lsn)
        elif case == "wrong LSN":
            _sidecar(tmp_path, position, ordinal, lsn - 1)
        elif case == "ordinal ahead of the file":
            _sidecar(tmp_path, position, position, lsn)
        elif case == "empty":
            sidecar.write_bytes(b"")
        elif case == "truncated":
            sidecar.write_bytes(good[:-1])
        elif case == "garbage":
            sidecar.write_bytes(os.urandom(len(good)))
        else:
            sidecar.write_bytes(good[:-1] + bytes([good[-1] ^ 1]))
        self._assert_opens_at_zero(tmp_path, history)

    def test_a_wrong_ordinal_is_caught_when_the_prefix_is_read(self, tmp_path):
        """Open makes no pass over the prefix, so past the bound on how
        many records fit below the offset the ordinal is the checksummed
        sidecar's word — until something reads the prefix and counts."""
        history, (position, ordinal, lsn), __ = self._history(tmp_path)
        _sidecar(tmp_path, position, ordinal - 1, lsn)
        log = _open(tmp_path, "file")
        assert (log.base, log.restart_from) == (ordinal - 1, lsn)
        with pytest.raises(StorageError, match="restart hint counts"):
            log.records()
        assert log.records(durable_only=True) == history

    def test_a_sidecar_left_by_a_deleted_log(self, tmp_path):
        """The benchmark deletes ``wal.log`` by name and knows no
        sidecar: a log file created here discards the one it finds."""
        self._history(tmp_path)
        os.remove(tmp_path / "wal.log")
        assert os.path.exists(tmp_path / "wal.log.restart")
        log = _open(tmp_path, "file")
        assert not os.path.exists(tmp_path / "wal.log.restart")
        _write(log, 1, 1)
        log.log_commit(Tid(1))
        assert (log.base, len(log.records())) == (0, 2)

    def test_a_sidecar_beside_a_log_recreated_behind_our_back(self, tmp_path):
        __, hint, __ = self._history(tmp_path)
        os.remove(tmp_path / "wal.log")
        other = MemoryLogDevice()
        log = WriteAheadLog(other)
        for tid in range(1, 30):
            _write(log, tid, tid, b"x" * 40)
            log.log_commit(Tid(tid))
        with open(tmp_path / "wal.log", "wb") as handle:
            for raw in other.read_all():
                handle.write(_U32.pack(len(raw)) + raw)
        assert os.path.getsize(tmp_path / "wal.log") > hint[0]
        self._assert_opens_at_zero(tmp_path, log.records())

    @pytest.mark.parametrize("case", [
        "index past the end", "wrong LSN", "ordinal ahead of durable_count",
    ])
    def test_a_memory_hint_that_fails_a_check(self, case):
        log = WriteAheadLog()
        _busy(log)
        log.log_commit(Tid(2))
        marker = _checkpoint(log)
        history, (ordinal, lsn) = log.records(), log.device.hint
        _write(log, 11, 1)  # volatile
        if case == "index past the end":
            log.device.hint = (ordinal + 50, lsn)
        elif case == "wrong LSN":
            log.device.hint = (ordinal, lsn + 1)
        else:  # names the first volatile record
            log.device.hint = (ordinal + 1, marker.lsn.value + 1)
        reopened = WriteAheadLog(log.device)
        assert (reopened.base, reopened.device.hint) == (0, None)
        assert reopened.records()[: len(history)] == history

    def test_a_tail_with_no_marker_to_vouch_for_the_prefix(self):
        """An old database: its markers say nothing of the highest tid
        below them, so a hint into it is no use — and it gets a good one
        at its next checkpoint."""
        device = MemoryLogDevice()
        log = WriteAheadLog(device)
        _write(log, 7, 1)
        log.log_commit(Tid(7))
        old = CheckpointRecord(lsn=Lsn(3), tid=Tid(0), active=(), redo_lsn=2)
        device.append(encode_record(old))
        device.flush()
        device.hint = (2, 3)
        reopened = WriteAheadLog(device)
        assert (reopened.base, reopened.max_tid_value()) == (0, 7)
        _checkpoint(reopened)
        assert device.hint == (3, 4)
        assert WriteAheadLog(device).max_tid_value() == 7

    def test_behind_a_void_mark_the_reopen_stands_at_the_hint(self):
        """A torn-page marker is no reason to open lower: the tail
        behind the hint still holds everything analysis needs."""
        log = WriteAheadLog()
        _busy(log)
        _checkpoint(log)
        hint = log.device.hint
        log.log_checkpoint((), redo_lsn=0)
        reopened = WriteAheadLog(log.device)
        assert reopened.device.hint == hint
        assert (reopened.base, reopened.redo_lsn) == (log.base, 0)
        assert _state(reopened) == _state(log)


class TestHighestTid:
    """The one thing about the prefix the tail cannot re-derive."""

    def _reopened_after_a_checkpoint(self):
        storage = StorageManager()
        oid = storage.create_object(Tid(41), b"v")  # the highest tid...
        storage.log_commit(Tid(41))
        storage.write_object(Tid(7), oid, b"w")
        storage.log_commit(Tid(7))
        storage.checkpoint()
        storage.write_object(Tid(9), oid, b"x")  # ...is not in the tail
        storage.log_commit(Tid(9))
        return WriteAheadLog(storage.log.device)

    def test_the_marker_carries_it_so_no_tid_is_reused(self):
        log = self._reopened_after_a_checkpoint()
        assert log.base > 0 and Tid(41) not in log.analysis()[0]
        assert log.max_tid_value() == max_tid_value_scan(log) == 41
        manager = TransactionManager(storage=StorageManager(log=log))
        assert manager.initiate().value == 42

    def test_a_log_that_forgets_it_is_caught_reusing_one(self):
        with restart_point_forgets_max_tid():
            log = self._reopened_after_a_checkpoint()
            assert log.max_tid_value() == 9 < max_tid_value_scan(log)
