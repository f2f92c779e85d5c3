"""The group-commit flush coalescer.

Commit records can *enroll* in a flush batch instead of forcing an
immediate device sync; the batch flushes when it reaches ``max_commits``
commits or ``max_bytes`` appended log bytes.  The trade is explicit:
between enrollment and batch flush a commit is not durable, and a crash
in that window loses it — exactly as if the commit had never been
requested.  Everything else about write-ahead logging is unchanged.
"""

import pytest

from repro.common.errors import StorageError
from repro.common.ids import ObjectId, Tid
from repro.storage.disk import InMemoryDiskManager
from repro.storage.log import (
    CommitRecord,
    FlushCoalescer,
    MemoryLogDevice,
    WriteAheadLog,
)
from repro.storage.store import StorageManager


class TestCoalescerPolicy:
    def test_n_commits_one_flush(self):
        log = WriteAheadLog(group_commit=FlushCoalescer(max_commits=4))
        before = log.flush_count
        for value in range(1, 4):
            log.log_commit(Tid(value))
        assert log.flush_count == before  # still enrolled, not durable
        log.log_commit(Tid(4))  # fourth commit trips the batch
        assert log.flush_count == before + 1
        assert log.group_commit.pending_commits == 0
        assert log.group_commit.batches_flushed == 1
        assert log.group_commit.enrolled_total == 4

    def test_int_shorthand_builds_coalescer(self):
        log = WriteAheadLog(group_commit=8)
        assert isinstance(log.group_commit, FlushCoalescer)
        assert log.group_commit.max_commits == 8

    def test_byte_bound_trips_before_count_bound(self):
        log = WriteAheadLog(
            group_commit=FlushCoalescer(max_commits=1000, max_bytes=256)
        )
        before = log.flush_count
        log.log_update(Tid(1), ObjectId(1), None, b"x" * 512)
        log.log_commit(Tid(1))  # bytes already exceed the bound
        assert log.flush_count == before + 1

    def test_explicit_flush_drains_batch(self):
        log = WriteAheadLog(group_commit=FlushCoalescer(max_commits=100))
        log.log_commit(Tid(1))
        assert log.group_commit.pending_commits == 1
        log.flush()
        assert log.group_commit.pending_commits == 0
        assert log.group_commit.batches_flushed == 1

    def test_checkpoint_forces_batch_durable(self):
        log = WriteAheadLog(group_commit=FlushCoalescer(max_commits=100))
        log.log_commit(Tid(1))
        log.log_checkpoint(active=())  # checkpoint always flushes
        assert log.group_commit.pending_commits == 0

    def test_without_coalescer_every_commit_flushes(self):
        log = WriteAheadLog()
        before = log.flush_count
        for value in range(1, 5):
            log.log_commit(Tid(value))
        assert log.flush_count == before + 4

    def test_invalid_bounds_rejected(self):
        with pytest.raises(StorageError):
            FlushCoalescer(max_commits=0)
        with pytest.raises(StorageError):
            FlushCoalescer(max_bytes=0)


class TestCrashSemantics:
    def _storage(self, max_commits=8):
        log = WriteAheadLog(
            MemoryLogDevice(),
            group_commit=FlushCoalescer(max_commits=max_commits),
        )
        return StorageManager(disk=InMemoryDiskManager(), log=log)

    def test_unflushed_commit_lost_on_crash(self):
        storage = self._storage()
        oid = storage.create_object(Tid(1), b"v1")
        storage.log.flush()  # the update reaches the device...
        storage.log_commit(Tid(1))  # ...but the enrolled commit does not
        storage.crash()
        report = storage.recover()
        assert Tid(1) in report.losers
        assert not storage.objects.exists(oid)

    def test_batch_boundary_makes_all_members_durable(self):
        storage = self._storage(max_commits=2)
        first = storage.create_object(Tid(1), b"v1")
        storage.log_commit(Tid(1))
        second = storage.create_object(Tid(2), b"v2")
        storage.log_commit(Tid(2))  # trips the batch: both durable
        storage.crash()
        report = storage.recover()
        assert report.winners == {Tid(1), Tid(2)}
        assert storage.objects.read(first) == b"v1"
        assert storage.objects.read(second) == b"v2"

    def test_sync_log_closes_deferral_window(self):
        storage = self._storage()
        oid = storage.create_object(Tid(1), b"v1")
        storage.log_commit(Tid(1))
        storage.sync_log()  # caller needs durability now
        storage.crash()
        report = storage.recover()
        assert Tid(1) in report.winners
        assert storage.objects.read(oid) == b"v1"

    def test_crash_resync_abandons_pending_batch(self):
        storage = self._storage()
        storage.create_object(Tid(1), b"v1")
        storage.log_commit(Tid(1))
        assert storage.log.group_commit.pending_commits == 1
        storage.crash()
        # The enrolled commit is gone from the device; nothing pends.
        assert storage.log.group_commit.pending_commits == 0
        batches_before = storage.log.group_commit.batches_flushed
        storage.log.flush()
        assert storage.log.group_commit.batches_flushed == batches_before

    def test_coalesced_commit_records_survive_in_order(self):
        storage = self._storage(max_commits=3)
        for value in range(1, 4):
            storage.create_object(Tid(value), bytes([value]))
            storage.log_commit(Tid(value))
        storage.crash()
        commits = [
            r
            for r in storage.log.records()
            if isinstance(r, CommitRecord)
        ]
        assert [r.tid for r in commits] == [Tid(1), Tid(2), Tid(3)]


class TestManagerWiring:
    def test_manager_exposes_group_commit(self):
        from repro.core.manager import TransactionManager

        manager = TransactionManager(group_commit=4)
        coalescer = manager.storage.log.group_commit
        assert isinstance(coalescer, FlushCoalescer)
        tids = []
        for __ in range(4):
            tid = manager.initiate()
            manager.begin(tid)
            manager.note_completed(tid)
            tids.append(tid)
        before = manager.storage.log.flush_count
        for tid in tids[:3]:
            assert manager.try_commit(tid).is_final
        assert manager.storage.log.flush_count == before  # deferred
        assert manager.try_commit(tids[3]).is_final  # trips the batch
        assert manager.storage.log.flush_count == before + 1
        manager.sync()  # idempotent drain
        assert coalescer.pending_commits == 0
