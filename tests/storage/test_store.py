"""StorageManager facade: latched logged operations, undo, crash cycle."""

import pytest

from repro.common.ids import Tid
from repro.storage.log import CommitRecord, CompensationRecord, UpdateRecord
from repro.storage.store import StorageManager


@pytest.fixture
def store():
    return StorageManager()


class TestLoggedOperations:
    def test_create_logs_absent_before_image(self, store):
        store.create_object(Tid(1), b"fresh")
        (record,) = store.log.records()
        assert isinstance(record, UpdateRecord)
        assert record.before is None
        assert record.after == b"fresh"

    def test_write_logs_before_and_after(self, store):
        oid = store.create_object(Tid(1), b"v0")
        store.write_object(Tid(1), oid, b"v1")
        created, written = store.log.records()
        assert isinstance(written, UpdateRecord)
        assert (written.before, written.after) == (b"v0", b"v1")

    def test_read_does_not_log(self, store):
        oid = store.create_object(Tid(1), b"v0")
        count = len(store.log.records())
        assert store.read_object(Tid(1), oid) == b"v0"
        assert len(store.log.records()) == count

    def test_delete_is_undoable(self, store):
        oid = store.create_object(Tid(1), b"v0")
        store.log_commit(Tid(1))
        store.delete_object(Tid(2), oid)
        assert not store.objects.exists(oid)
        store.undo(Tid(2))
        assert store.read_object(Tid(2), oid) == b"v0"


class TestUndo:
    def test_undo_restores_in_reverse(self, store):
        oid = store.create_object(Tid(1), b"v0")
        store.log_commit(Tid(1))
        store.write_object(Tid(2), oid, b"v1")
        store.write_object(Tid(2), oid, b"v2")
        undone = store.undo(Tid(2))
        assert undone == 2
        assert store.read_object(Tid(2), oid) == b"v0"

    def test_undo_respects_delegation(self, store):
        oid = store.create_object(Tid(1), b"v0")
        store.log_commit(Tid(1))
        store.write_object(Tid(2), oid, b"v1")
        store.log_delegate(Tid(2), Tid(3), [oid])
        assert store.undo(Tid(2)) == 0  # no longer responsible
        assert store.read_object(Tid(2), oid) == b"v1"
        assert store.undo(Tid(3)) == 1
        assert store.read_object(Tid(3), oid) == b"v0"

    def test_undo_of_create_deletes(self, store):
        oid = store.create_object(Tid(1), b"fresh")
        store.undo(Tid(1))
        assert not store.objects.exists(oid)


class TestCrashRecovery:
    def test_full_cycle(self, store):
        oid = store.create_object(Tid(1), b"base")
        store.log_commit(Tid(1))
        store.write_object(Tid(2), oid, b"committed")
        store.log_commit(Tid(2))
        store.write_object(Tid(3), oid, b"in-flight")
        store.log.flush()  # the update records are durable; the commit isn't
        store.crash()
        report = store.recover()
        assert Tid(2) in report.winners
        assert Tid(3) in report.losers
        assert store.read_object(Tid(0), oid) == b"committed"

    def test_unflushed_log_records_lost(self, store):
        oid = store.create_object(Tid(1), b"base")
        store.log_commit(Tid(1))
        store.write_object(Tid(2), oid, b"never-committed")
        # No commit, no flush: the log records for Tid(2) may be lost, but
        # either way the value must roll back to base.
        store.crash()
        store.recover()
        assert store.read_object(Tid(0), oid) == b"base"

    def test_checkpoint_flushes_pages(self, store):
        oid = store.create_object(Tid(1), b"base")
        store.log_commit(Tid(1))
        store.checkpoint(active=[])
        # Even without redo, disk holds the value now.
        store.pool.drop_all()
        store.objects._rebuild_table()
        assert store.objects.read(oid) == b"base"

    def test_group_commit_record(self, store):
        store.create_object(Tid(1), b"a")
        store.log_commit(Tid(1), group=[Tid(2), Tid(3)])
        commits = [
            r for r in store.log.records() if isinstance(r, CommitRecord)
        ]
        assert commits[-1].committed_tids() == {Tid(1), Tid(2), Tid(3)}
