"""Workflow records in the WAL: codec, durability, recovery neutrality.

The durable workflow engine's whole contract rests on three storage
properties: the record round-trips byte-exactly, ``log_workflow`` is
*forced* (durable the moment the call returns — an attempt record that
could evaporate would reopen the commit/marker atomicity hole), and the
data-path machinery (restart recovery, checkpointing) treats the new
type as inert cargo.
"""

import pytest

from repro.common.ids import Lsn, ObjectId, Tid
from repro.storage.log import (
    WorkflowRecord,
    WriteAheadLog,
    decode_record,
    encode_record,
)
from repro.storage.recovery import RecoveryManager
from repro.storage.store import StorageManager


def _create(store, value):
    """``value`` under the next id above every one ``store`` holds (an
    object store allocates none)."""
    return store.create(value, ObjectId(max(store.object_ids(), default=0) + 1))


class TestCodec:
    def test_round_trip(self):
        record = WorkflowRecord(
            lsn=Lsn(4), tid=Tid(7), wid=3, kind="step_attempt",
            payload=b'{"step": "hotel"}',
        )
        assert decode_record(encode_record(record)) == record

    def test_empty_payload_round_trip(self):
        record = WorkflowRecord(lsn=Lsn(1), tid=Tid(0), wid=1, kind="started")
        decoded = decode_record(encode_record(record))
        assert decoded == record
        assert decoded.payload == b""

    def test_unicode_kind_round_trip(self):
        record = WorkflowRecord(lsn=Lsn(1), tid=Tid(0), wid=9, kind="señal")
        assert decode_record(encode_record(record)).kind == "señal"


class TestDurability:
    def test_log_workflow_is_forced(self):
        log = WriteAheadLog()
        log.log_workflow(5, "started", payload=b"x")
        durable = [
            r for r in log.records(durable_only=True)
            if isinstance(r, WorkflowRecord)
        ]
        assert len(durable) == 1
        assert durable[0].wid == 5
        assert durable[0].payload == b"x"

    def test_interleaves_with_data_records(self):
        from repro.common.ids import ObjectId

        log = WriteAheadLog()
        log.log_update(Tid(1), ObjectId(1), None, b"v")
        log.log_workflow(1, "step_attempt", payload=b"a", tid=Tid(1))
        log.log_commit(Tid(1))
        kinds = [type(r).__name__ for r in log.records()]
        assert kinds == [
            "UpdateRecord", "WorkflowRecord", "CommitRecord",
        ]


class TestRecoveryNeutrality:
    def test_recovery_ignores_workflow_records(self):
        from repro.storage.buffer import BufferPool
        from repro.storage.disk import InMemoryDiskManager
        from repro.storage.objects import ObjectStore

        store = ObjectStore(BufferPool(InMemoryDiskManager(), capacity=16))
        log = WriteAheadLog()
        oid = _create(store, b"base")
        log.log_workflow(1, "started")
        log.log_update(Tid(1), oid, b"base", b"w1")
        store.write(oid, b"w1")
        log.log_workflow(1, "step_attempt", tid=Tid(1))
        log.log_commit(Tid(1))
        log.log_workflow(1, "finished")
        report = RecoveryManager(log, store).run()
        assert Tid(1) in report.winners
        assert store.read(oid) == b"w1"


class TestShardedRouting:
    def test_routes_to_segment_zero(self):
        storage = StorageManager(n_shards=4)
        storage.log_workflow(2, "started", payload=b"p")
        home = [
            r for r in storage.shards[0].log.records(durable_only=True)
            if isinstance(r, WorkflowRecord)
        ]
        assert len(home) == 1 and home[0].wid == 2
        for shard in storage.shards[1:]:
            assert not any(
                isinstance(r, WorkflowRecord) for r in shard.log.records()
            )

    def test_merged_view_carries_workflow_records(self):
        storage = StorageManager(n_shards=2)
        storage.log_workflow(1, "started")
        storage.log_workflow(1, "finished")
        kinds = [
            r.kind for r in storage.log.records()
            if isinstance(r, WorkflowRecord)
        ]
        assert kinds == ["started", "finished"]

    def test_survives_segmented_crash_recover(self):
        storage = StorageManager(n_shards=2)
        storage.log_workflow(3, "started", payload=b"ctx")
        storage.crash()
        storage.recover()
        survivors = [
            r for r in storage.log.records()
            if isinstance(r, WorkflowRecord)
        ]
        assert [r.wid for r in survivors] == [3]
        assert survivors[0].payload == b"ctx"
