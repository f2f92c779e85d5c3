"""Checkpointing and log truncation."""

import pytest

from repro.common.errors import UnknownObjectError
from repro.common.ids import Tid
from repro.storage.log import (
    CheckpointRecord,
    CompensationRecord,
    FileLogDevice,
    WriteAheadLog,
)
from repro.storage.store import StorageManager
from tests.chaos.mutations import base_images_skipped


@pytest.fixture
def store():
    return StorageManager()


class TestSharpCheckpoint:
    def test_truncate_discards_records(self, store):
        oid = store.create_object(Tid(1), b"v")
        store.log_commit(Tid(1))
        assert len(store.log.records()) > 0
        store.checkpoint(active=(), truncate=True)
        # The update and the commit are gone.  What remains is one
        # redo-only image of the object, owned by no transaction, and
        # the marker, whose mark covers the image: it is in the pages.
        image, marker = store.log.records()
        assert isinstance(image, CompensationRecord)
        assert (image.tid, image.oid, image.after) == (Tid(0), oid, b"v")
        assert isinstance(marker, CheckpointRecord)
        assert marker.redo_lsn == image.lsn.value

    def test_truncate_refused_while_active(self, store):
        oid = store.create_object(Tid(1), b"v")
        before = len(store.log.records())
        store.checkpoint(active=(Tid(1),), truncate=True)
        assert len(store.log.records()) == before + 1  # marker only added

    def test_state_survives_crash_after_truncation(self, store):
        oid = store.create_object(Tid(1), b"durable")
        store.log_commit(Tid(1))
        store.checkpoint(active=(), truncate=True)
        store.crash()
        report = store.recover()
        assert report.redone == 0  # nothing left to redo...
        assert store.read_object(Tid(0), oid) == b"durable"  # ...not needed

    def test_lsns_keep_growing_after_truncation(self, store):
        store.create_object(Tid(1), b"v")
        last = store.log.records()[-1].lsn
        store.checkpoint(active=(), truncate=True)
        record = store.log.log_commit(Tid(2))
        assert record.lsn.value > last.lsn if hasattr(last, "lsn") else True
        assert record.lsn.value > last.value

    @pytest.mark.parametrize("reopen", [False, True])
    def test_the_highest_tid_survives_truncation(self, tmp_path, reopen):
        # Tids 1-5 are logged and truncated away; the marker carries 5,
        # so neither the log nor a restart from it reissues one.
        log = WriteAheadLog(FileLogDevice(tmp_path / "wal.log"))
        store = StorageManager(log=log)
        for value in range(1, 6):
            store.create_object(Tid(value), b"v")
            store.log_commit(Tid(value))
        store.checkpoint(active=(), truncate=True)
        if reopen:
            log.device.close()
            log = WriteAheadLog(FileLogDevice(tmp_path / "wal.log"))
            store = StorageManager(disk=store.disk, log=log)
            store.recover()
        assert not any(record.tid == 5 for record in log.records())
        assert log.max_tid_value() == 5

    def test_work_after_truncation_recovers_normally(self, store):
        oid = store.create_object(Tid(1), b"v1")
        store.log_commit(Tid(1))
        store.checkpoint(active=(), truncate=True)
        store.write_object(Tid(2), oid, b"v2")
        store.log_commit(Tid(2))
        store.write_object(Tid(3), oid, b"v3")  # loser
        store.log.flush()
        store.crash()
        store.recover()
        assert store.read_object(Tid(0), oid) == b"v2"

    def test_a_page_torn_after_truncation_is_rebuilt(self, store):
        big = store.create_object(Tid(1), b"c" * 4100)  # two chunks
        small = store.create_object(Tid(1), b"s")
        store.log_commit(Tid(1))
        store.checkpoint(active=(), truncate=True)
        store.crash()
        for page_id in store.disk.page_ids():  # every page, one by one
            image = bytes(store.disk.read_page(page_id))
            store.disk.write_page(page_id, image[:8] + bytes(len(image) - 8))
            report = store.recover()
            assert store.objects.damaged_pages[-1] == page_id
            assert report.redo_from == 0  # the void mark: the whole log
            assert store.read_object(Tid(0), big) == b"c" * 4100
            assert store.read_object(Tid(0), small) == b"s"
            store.checkpoint(active=(), truncate=True)
            store.crash()

    def test_a_checkpoint_that_keeps_no_image_is_caught(self, store):
        # The first page torn holds the large object's header: it is gone.
        with base_images_skipped(), pytest.raises(UnknownObjectError):
            self.test_a_page_torn_after_truncation_is_rebuilt(store)


class TestFileDeviceTruncation:
    def test_file_log_truncates_on_disk(self, tmp_path):
        path = tmp_path / "wal.log"
        log = WriteAheadLog(FileLogDevice(path))
        log.log_commit(Tid(1))
        assert path.stat().st_size > 0
        log.truncate()
        assert path.stat().st_size == 0
        # Still usable afterwards.
        log.log_commit(Tid(2))
        assert len(log.records()) == 1
