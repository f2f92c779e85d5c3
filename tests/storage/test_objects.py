"""Object store: CRUD, relocation, table rebuild.

The store allocates no ids — the storage manager does — so these tests
create each object under the next id above every one the store holds,
and the allocation tests go through :class:`StorageManager`."""

import pytest

from repro.common.errors import StorageError, UnknownObjectError
from repro.common.ids import ObjectId, Tid
from repro.storage.buffer import BufferPool
from repro.storage.disk import InMemoryDiskManager
from repro.storage.objects import ObjectStore
from repro.storage.store import StorageManager


def _create(store, value):
    return store.create(value, ObjectId(max(store.object_ids(), default=0) + 1))


@pytest.fixture
def store():
    return ObjectStore(BufferPool(InMemoryDiskManager(), capacity=16))


class TestCrud:
    def test_create_read(self, store):
        oid = store.create(b"hello", ObjectId(1, name="greeting"))
        assert store.read(oid) == b"hello"
        assert store.exists(oid)

    def test_ids_are_sequential(self):
        storage = StorageManager()
        first = storage.create_object(Tid(1), b"a")
        second = storage.create_object(Tid(1), b"b")
        assert second.value == first.value + 1

    def test_write_overwrites(self, store):
        oid = _create(store, b"old")
        store.write(oid, b"new")
        assert store.read(oid) == b"new"

    def test_write_grows_object(self, store):
        oid = _create(store, b"small")
        big = b"x" * 2000
        store.write(oid, big)
        assert store.read(oid) == big

    def test_delete(self, store):
        oid = _create(store, b"doomed")
        store.delete(oid)
        assert not store.exists(oid)
        with pytest.raises(UnknownObjectError):
            store.read(oid)

    def test_unknown_object(self, store):
        with pytest.raises(UnknownObjectError):
            store.read(ObjectId(999))

    def test_forced_oid_for_recovery(self, store):
        oid = store.create(b"x", ObjectId(50))
        assert oid.value == 50
        assert store.object_ids() == [50]

    def test_forced_oid_conflict(self, store):
        store.create(b"x", ObjectId(5))
        with pytest.raises(StorageError):
            store.create(b"y", ObjectId(5))

    def test_large_object_round_trip(self, store):
        big = bytes(range(256)) * 50  # 12,800 bytes: several pages
        oid = _create(store, big)
        assert store.read(oid) == big

    def test_large_object_write_and_shrink(self, store):
        oid = _create(store, b"small")
        big = b"x" * 10_000
        store.write(oid, big)
        assert store.read(oid) == big
        store.write(oid, b"tiny again")
        assert store.read(oid) == b"tiny again"
        # Chunk slots were reclaimed: only real objects remain.
        assert store.object_ids() == [oid.value]

    def test_large_object_delete_reclaims_chunks(self, store):
        oid = _create(store, b"z" * 10_000)
        small = _create(store, b"keep")
        store.delete(oid)
        assert not store.exists(oid)
        assert store.object_ids() == [small.value]

    def test_inline_value_resembling_header_is_safe(self, store):
        # A 9-byte value that could look like a LOB header must survive.
        tricky = b"\x01" + b"\x02\x00\x00\x00" + b"\x10\x00\x00\x00"
        oid = _create(store, tricky)
        assert store.read(oid) == tricky

    def test_large_object_survives_rebuild(self):
        disk = InMemoryDiskManager()
        storage = StorageManager(disk=disk, capacity=16)
        big = b"payload-" * 2000
        oid = storage.create_object(Tid(1), big)
        storage.pool.flush_all()
        fresh = StorageManager(disk=disk, capacity=16)  # and a new log
        assert fresh.objects.read(oid) == big
        # Chunk ids do not leak into the visible object space.
        assert fresh.objects.object_ids() == [oid.value]
        # Nor do they poison id allocation.
        assert fresh.create_object(Tid(2), b"next").value == oid.value + 1

    def test_object_ids_sorted(self, store):
        for __ in range(5):
            _create(store, b"v")
        assert store.object_ids() == sorted(store.object_ids())
        assert len(store) == 5


class TestPlacement:
    def test_many_objects_span_pages(self, store):
        oids = [_create(store, bytes([i % 250]) * 500) for i in range(30)]
        for index, oid in enumerate(oids):
            assert store.read(oid) == bytes([index % 250]) * 500
        assert len(store.pool.disk.page_ids()) > 1

    def test_relocation_preserves_others(self, store):
        stable = _create(store, b"stay")
        mover = _create(store, b"s")
        store.write(mover, b"m" * 3000)
        assert store.read(stable) == b"stay"
        assert store.read(mover) == b"m" * 3000


class TestRebuild:
    def test_rebuild_after_flush(self):
        disk = InMemoryDiskManager()
        storage = StorageManager(disk=disk, capacity=16)
        oid_a = storage.create_object(Tid(1), b"alpha")
        oid_b = storage.create_object(Tid(1), b"beta")
        storage.pool.flush_all()

        fresh = StorageManager(disk=disk, capacity=16)  # and a new log
        assert fresh.objects.read(oid_a) == b"alpha"
        assert fresh.objects.read(oid_b) == b"beta"
        # Id allocation resumes above the recovered high-water mark.
        assert fresh.create_object(Tid(2), b"gamma").value > oid_b.value
