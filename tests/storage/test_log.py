"""The write-ahead log: record encoding, devices, delegation attribution."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos.faults import FaultInjector, FaultPlan
from repro.common.ids import Lsn, ObjectId, Tid
from repro.storage import log as log_module
from repro.storage.log import (
    _U32,
    AbortRecord,
    CheckpointRecord,
    CommitRecord,
    CompensationRecord,
    DelegateRecord,
    FileLogDevice,
    MemoryLogDevice,
    UpdateRecord,
    WriteAheadLog,
    decode_record,
    encode_record,
)
from repro.storage.store import StorageManager


class TestRecordCodec:
    def test_update_round_trip(self):
        record = UpdateRecord(
            lsn=Lsn(1), tid=Tid(2), oid=ObjectId(3), before=b"old", after=b"new"
        )
        assert decode_record(encode_record(record)) == record

    def test_absent_image_round_trip(self):
        """Either side of an update may be absent: a creation has no
        before image, a deletion no after image — and absent is not
        empty."""
        created = UpdateRecord(
            lsn=Lsn(1), tid=Tid(2), oid=ObjectId(3), before=None, after=b""
        )
        decoded = decode_record(encode_record(created))
        assert (decoded.before, decoded.after) == (None, b"")
        deleted = UpdateRecord(
            lsn=Lsn(1), tid=Tid(2), oid=ObjectId(3), before=b"", after=None
        )
        decoded = decode_record(encode_record(deleted))
        assert (decoded.before, decoded.after) == (b"", None)

    def test_update_and_compensation_are_types_11_and_12(self):
        update = UpdateRecord(
            lsn=Lsn(1), tid=Tid(2), oid=ObjectId(3), before=b"a", after=b"b"
        )
        restored = CompensationRecord(
            lsn=Lsn(2), tid=Tid(2), oid=ObjectId(3), after=b"a"
        )
        assert encode_record(update)[0] == 11
        assert encode_record(restored)[0] == 12

    def test_commit_with_group(self):
        record = CommitRecord(lsn=Lsn(9), tid=Tid(1), group=(Tid(2), Tid(3)))
        decoded = decode_record(encode_record(record))
        assert decoded == record
        assert decoded.committed_tids() == {Tid(1), Tid(2), Tid(3)}

    def test_delegate_round_trip(self):
        record = DelegateRecord(
            lsn=Lsn(5),
            tid=Tid(1),
            delegatee=Tid(7),
            oids=(ObjectId(1), ObjectId(2)),
        )
        assert decode_record(encode_record(record)) == record

    def test_abort_and_checkpoint(self):
        abort = AbortRecord(lsn=Lsn(2), tid=Tid(4))
        assert decode_record(encode_record(abort)) == abort
        checkpoint = CheckpointRecord(
            lsn=Lsn(3), tid=Tid(0), active=(Tid(1),)
        )
        assert decode_record(encode_record(checkpoint)) == checkpoint

    @given(
        st.integers(min_value=1, max_value=2**40),
        st.integers(min_value=1, max_value=2**40),
        st.integers(min_value=1, max_value=2**40),
        st.one_of(st.none(), st.binary(max_size=200)),
        st.one_of(st.none(), st.binary(max_size=200)),
    )
    @settings(max_examples=80, deadline=None)
    def test_image_record_property(self, lsn, tid, oid, before, after):
        update = UpdateRecord(
            lsn=Lsn(lsn), tid=Tid(tid), oid=ObjectId(oid),
            before=before, after=after,
        )
        assert decode_record(encode_record(update)) == update
        restored = CompensationRecord(
            lsn=Lsn(lsn), tid=Tid(tid), oid=ObjectId(oid), after=after
        )
        assert decode_record(encode_record(restored)) == restored


class TestWriteAheadLog:
    def test_lsns_are_monotone(self):
        log = WriteAheadLog()
        records = [
            log.log_update(Tid(1), ObjectId(1), b"a", b"b"),
            log.log_compensation(Tid(1), ObjectId(1), b"a"),
            log.log_commit(Tid(1)),
        ]
        lsns = [record.lsn for record in records]
        assert lsns == sorted(lsns)
        assert len(set(lsns)) == 3

    def test_records_returns_in_order(self):
        log = WriteAheadLog()
        log.log_update(Tid(1), ObjectId(1), b"a", b"b")
        log.log_commit(Tid(1))
        kinds = [type(record) for record in log.records()]
        assert kinds == [UpdateRecord, CommitRecord]

    def test_commit_flushes(self):
        log = WriteAheadLog()
        before = log.flush_count
        log.log_commit(Tid(1))
        assert log.flush_count == before + 1

    def test_durable_only_view(self):
        log = WriteAheadLog()
        log.log_update(Tid(1), ObjectId(1), None, b"a")
        assert log.records(durable_only=True) == []
        log.flush()
        assert len(log.records(durable_only=True)) == 1

    def test_crash_drops_unflushed(self):
        log = WriteAheadLog()
        log.log_update(Tid(1), ObjectId(1), None, b"a")
        log.flush()
        log.log_update(Tid(1), ObjectId(2), None, b"b")
        log.device.crash()
        log.resync()  # whoever crashes the device must resync the cache
        assert len(log.records()) == 1

    def test_resync_rebuilds_cache(self):
        device = MemoryLogDevice()
        log = WriteAheadLog(device)
        log.log_commit(Tid(1))
        # A second handle appends behind our back.
        other = WriteAheadLog(device)
        other.log_commit(Tid(2))
        log.resync()
        assert len(log.records()) == 2

    def test_reopen_resumes_lsn(self):
        device = MemoryLogDevice()
        log = WriteAheadLog(device)
        last = log.log_commit(Tid(1))
        reopened = WriteAheadLog(device)
        fresh = reopened.log_commit(Tid(2))
        assert fresh.lsn.value > last.lsn.value


class TestDelegationAttribution:
    def test_updates_by_follows_delegation(self):
        log = WriteAheadLog()
        a, b = ObjectId(1), ObjectId(2)
        log.log_update(Tid(1), a, None, b"va")
        log.log_update(Tid(1), b, None, b"vb")
        log.log_delegate(Tid(1), Tid(2), [a])
        assert [r.oid for r in log.updates_by(Tid(1))] == [b]
        assert [r.oid for r in log.updates_by(Tid(2))] == [a]

    def test_chained_delegation(self):
        log = WriteAheadLog()
        a = ObjectId(1)
        log.log_update(Tid(1), a, None, b"v")
        log.log_delegate(Tid(1), Tid(2), [a])
        log.log_delegate(Tid(2), Tid(3), [a])
        assert log.updates_by(Tid(1)) == []
        assert log.updates_by(Tid(2)) == []
        assert [r.oid for r in log.updates_by(Tid(3))] == [a]

    def test_updates_after_delegation_stay_with_writer(self):
        log = WriteAheadLog()
        a = ObjectId(1)
        log.log_update(Tid(1), a, b"v1", b"v2")
        log.log_delegate(Tid(1), Tid(2), [a])
        log.log_update(Tid(1), a, b"v2", b"v3")  # a NEW update by Tid(1)
        assert [r.before for r in log.updates_by(Tid(1))] == [b"v2"]
        assert [r.before for r in log.updates_by(Tid(2))] == [b"v1"]


class TestFileDevice:
    def test_file_round_trip(self, tmp_path):
        device = FileLogDevice(tmp_path / "wal.log")
        log = WriteAheadLog(device)
        log.log_update(Tid(1), ObjectId(1), None, b"x")
        log.log_commit(Tid(1))
        device.close()

        reopened = WriteAheadLog(FileLogDevice(tmp_path / "wal.log"))
        kinds = [type(record) for record in reopened.records()]
        assert kinds == [UpdateRecord, CommitRecord]

    def test_torn_tail_ignored(self, tmp_path):
        path = tmp_path / "wal.log"
        device = FileLogDevice(path)
        log = WriteAheadLog(device)
        log.log_commit(Tid(1))
        device.flush()
        device.close()
        # Simulate a torn write: append garbage length prefix + short body.
        with open(path, "ab") as handle:
            handle.write(b"\xff\xff\x00\x00partial")
        reopened = WriteAheadLog(FileLogDevice(path))
        assert len(reopened.records()) == 1

    @pytest.mark.parametrize(
        "torn",
        [_U32.pack(100) + b"12345", b"\x64\x00"],
        ids=["short body", "shorter than a length prefix"],
    )
    def test_appending_after_a_torn_tail_keeps_acknowledged_commits(
        self, tmp_path, torn
    ):
        """The open's forward walk ends at the last complete record; the
        torn bytes behind it are cut off the file there, or the next
        append would land after them and be swallowed by their length
        prefix at the following restart."""
        path = tmp_path / "wal.log"
        log = WriteAheadLog(FileLogDevice(path))
        log.log_update(Tid(1), ObjectId(1), None, b"a")
        log.log_update(Tid(1), ObjectId(1), b"a", b"b")
        log.log_commit(Tid(1))
        log.device.close()
        whole = path.stat().st_size
        with open(path, "ab") as handle:
            handle.write(torn)

        reopened = WriteAheadLog(FileLogDevice(path))
        assert len(reopened.records()) == 3
        assert path.stat().st_size == whole
        assert reopened.device.durable_count() == 3
        reopened.log_update(Tid(2), ObjectId(1), b"b", b"c")
        reopened.log_commit(Tid(2))  # acknowledged: synced
        reopened.device.close()

        again = WriteAheadLog(FileLogDevice(path))
        assert again.records() == reopened.records()
        assert again.analysis()[0] == {Tid(1), Tid(2)}

    def test_unsynced_appends_are_not_durable(self, tmp_path):
        """``records(durable_only=True)`` is what a restart would see: on
        a file, nothing until the first real sync."""
        log = WriteAheadLog(FileLogDevice(tmp_path / "wal.log"))
        log.log_update(Tid(1), ObjectId(1), None, b"x")
        log.log_update(Tid(1), ObjectId(1), b"x", b"y")
        assert log.records(durable_only=True) == []
        assert log.device.durable_count() == 0
        log.flush()
        assert log.records(durable_only=True) == log.records()
        assert log.device.durable_count() == 2

    def test_crash_keeps_exactly_the_synced_prefix(self, tmp_path):
        path = tmp_path / "wal.log"
        log = WriteAheadLog(FileLogDevice(path))
        log.log_update(Tid(1), ObjectId(1), None, b"x")
        log.log_commit(Tid(1))  # syncs
        synced = log.records()
        log.log_update(Tid(2), ObjectId(1), b"x", b"lost")
        log.log_update(Tid(2), ObjectId(1), b"lost", b"lost too")
        assert log.records(durable_only=True) == synced
        log.device.crash()
        log.resync()
        assert log.records() == synced
        assert log.device.durable_count() == len(synced)
        # The surviving handle appends where the cut left off...
        log.log_commit(Tid(3))
        log.device.close()
        # ...and a reopen agrees, with everything it finds counted durable.
        reopened = WriteAheadLog(FileLogDevice(path))
        assert reopened.records() == log.records()
        assert reopened.device.durable_count() == len(synced) + 1
        assert reopened.records(durable_only=True) == reopened.records()

    def test_a_lied_sync_leaves_the_durable_marks_behind(self, tmp_path):
        # Steps: append 1, append 2, flush 3 (lied about), flush 4 (real).
        injector = FaultInjector(plan=FaultPlan(lose_fsync_at={3}))
        log = WriteAheadLog(
            FileLogDevice(tmp_path / "wal.log", injector=injector)
        )
        log.log_update(Tid(1), ObjectId(1), None, b"x")
        log.log_update(Tid(1), ObjectId(1), b"x", b"y")
        log.flush()
        assert injector.lied_fsyncs == 1
        assert log.device.durable_count() == 0
        assert log.records(durable_only=True) == []
        log.flush()
        assert log.device.durable_count() == 2

    def test_reset_forgets_the_durable_marks(self, tmp_path):
        log = WriteAheadLog(FileLogDevice(tmp_path / "wal.log"))
        log.log_commit(Tid(1))
        log.truncate()
        assert log.device.durable_count() == 0
        assert log.records(durable_only=True) == []
        log.log_commit(Tid(2))
        assert len(log.records(durable_only=True)) == 1


class TestFileWalkBuffer:
    """A walk of the file reads every record into one reused buffer."""

    def _log(self, tmp_path, images):
        log = WriteAheadLog(FileLogDevice(tmp_path / "wal.log"))
        for number, image in enumerate(images, start=1):
            log.log_update(Tid(1), ObjectId(number), image, image)
        log.flush()
        return log

    def _count_buffers(self, monkeypatch):
        made = []
        monkeypatch.setattr(
            log_module, "bytearray",
            lambda size: made.append(size) or bytearray(size),
            raising=False,
        )
        return made

    def test_one_buffer_allocation_per_walk_not_per_record(
        self, tmp_path, monkeypatch
    ):
        log = self._log(tmp_path, [bytes([n]) * 2048 for n in range(1, 201)])
        made = self._count_buffers(monkeypatch)
        records = log.records(durable_only=True)  # one walk of 200 records
        assert len(made) == 1
        assert [r.before for r in records] == [
            bytes([n]) * 2048 for n in range(1, 201)
        ]
        assert sum(len(raw) for raw in log.device.read_all()) > 200 * 4096
        assert len(made) == 2  # the second walk's own

    def test_a_record_that_outgrows_the_buffer_gets_a_larger_one(
        self, tmp_path, monkeypatch
    ):
        big = b"B" * 100_000
        log = self._log(tmp_path, [b"a", big, b"c"])
        made = self._count_buffers(monkeypatch)
        records = log.records(durable_only=True)
        assert len(made) == 2 and made[1] >= 2 * len(big)
        assert [r.after for r in records] == [b"a", big, b"c"]

    def test_a_yielded_view_is_good_until_the_next_one(self, tmp_path):
        log = self._log(tmp_path, [b"first", b"second"])
        walk = log.device.read_all()
        view = next(walk)
        first = bytes(view)
        assert decode_record(first).after == b"first"
        next(walk)  # the same buffer now holds the second record
        assert bytes(view) != first


class TestDurableWatermark:
    """``durable_lsn``: what the device confirms, and its reset points."""

    def test_flush_advances_to_the_last_appended_lsn(self):
        log = WriteAheadLog()
        assert (log.last_lsn, log.durable_lsn) == (0, 0)
        log.log_update(Tid(1), ObjectId(1), None, b"a")
        log.log_update(Tid(1), ObjectId(1), b"a", b"b")
        assert (log.last_lsn, log.durable_lsn) == (2, 0)
        log.flush()
        assert log.durable_lsn == 2

    def test_force_syncs_only_past_the_watermark(self):
        log = WriteAheadLog()
        log.log_update(Tid(1), ObjectId(1), None, b"a")
        log.log_commit(Tid(1))
        flushes = log.flush_count
        assert log.force(2) is False  # already durable: no device sync
        assert log.flush_count == flushes
        log.log_update(Tid(2), ObjectId(1), None, b"b")
        assert log.force(3) is True
        assert log.flush_count == flushes + 1
        assert log.force(3) is False

    def test_a_lied_flush_does_not_advance_it(self):
        # Steps: append 1, flush 2, append 3, flush 4 (lied), flush 5.
        injector = FaultInjector(plan=FaultPlan(lose_fsync_at={4}))
        log = WriteAheadLog(MemoryLogDevice(injector=injector))
        log.log_update(Tid(1), ObjectId(1), None, b"a")
        log.flush()
        log.log_update(Tid(1), ObjectId(2), None, b"b")
        log.flush()  # the device says yes and does nothing
        assert (log.last_lsn, log.durable_lsn) == (2, 1)
        assert log.force(2) is True  # so the gate forces again
        assert log.durable_lsn == 2

    def test_resync_resets_it_to_what_survived(self):
        log = WriteAheadLog()
        log.log_update(Tid(1), ObjectId(1), None, b"a")
        log.flush()
        log.log_update(Tid(1), ObjectId(2), None, b"b")
        log.device.crash()
        log.resync()
        assert (log.last_lsn, log.durable_lsn) == (1, 1)

    def test_reopen_counts_everything_found_as_durable(self, tmp_path):
        path = tmp_path / "wal.log"
        log = WriteAheadLog(FileLogDevice(path))
        log.log_update(Tid(1), ObjectId(1), None, b"a")
        log.log_commit(Tid(1))
        log.device.close()
        reopened = WriteAheadLog(FileLogDevice(path))
        assert reopened.durable_lsn == reopened.last_lsn == 2

    def test_a_second_handle_sees_the_unflushed_tail_as_volatile(self):
        device = MemoryLogDevice()
        log = WriteAheadLog(device)
        log.log_commit(Tid(1))  # lsn 1, flushed
        log.log_update(Tid(2), ObjectId(1), None, b"a")  # lsn 2, volatile
        other = WriteAheadLog(device)
        assert (other.last_lsn, other.durable_lsn) == (2, 1)

    def test_truncate_leaves_nothing_volatile(self):
        log = WriteAheadLog()
        log.log_update(Tid(1), ObjectId(1), None, b"a")
        log.truncate()
        assert log.durable_lsn == log.last_lsn == 1
        log.log_update(Tid(2), ObjectId(1), None, b"b")
        assert (log.last_lsn, log.durable_lsn) == (2, 1)

    def test_segments_keep_their_own_watermarks(self):
        store = StorageManager(n_shards=2)
        one = store.create_object(Tid(1), b"v")  # oid 1 -> shard 1
        two = store.create_object(Tid(1), b"w")  # oid 2 -> shard 0
        first, second = store.shards[1].log, store.shards[0].log
        assert first is not second
        first.flush()
        assert first.durable_lsn == first.last_lsn == 1
        assert second.durable_lsn == 0 and second.last_lsn == 2
