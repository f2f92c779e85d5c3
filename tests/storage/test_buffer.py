"""Buffer pool: pinning, eviction, flushing, crash drop."""

import pytest

from repro.chaos.faults import LOG_FLUSH, FaultInjector, FaultPlan
from repro.common.errors import StorageError
from repro.common.ids import Tid
from repro.storage.buffer import BufferPool
from repro.storage.disk import InMemoryDiskManager
from repro.storage.log import MemoryLogDevice, UpdateRecord, WriteAheadLog
from repro.storage.store import StorageManager


@pytest.fixture
def disk():
    return InMemoryDiskManager()


@pytest.fixture
def pool(disk):
    return BufferPool(disk, capacity=4)


class TestPinning:
    def test_new_page_is_pinned_and_dirty(self, pool):
        frame = pool.new_page()
        assert frame.pin_count == 1
        assert frame.dirty

    def test_fetch_hit_and_miss_counters(self, pool):
        frame = pool.new_page()
        page_id = frame.page.page_id
        pool.unpin(page_id)
        pool.fetch(page_id)
        assert pool.hits == 1
        pool.unpin(page_id)
        pool.drop_all()
        pool.fetch(page_id)
        assert pool.misses == 1

    def test_unpin_without_pin_raises(self, pool):
        frame = pool.new_page()
        page_id = frame.page.page_id
        pool.unpin(page_id)
        with pytest.raises(StorageError):
            pool.unpin(page_id)

    def test_nested_pins(self, pool):
        frame = pool.new_page()
        page_id = frame.page.page_id
        pool.fetch(page_id)
        assert frame.pin_count == 2
        pool.unpin(page_id)
        pool.unpin(page_id)
        assert frame.pin_count == 0


class TestEviction:
    def test_evicts_when_full(self, pool):
        ids = []
        for __ in range(6):
            frame = pool.new_page()
            ids.append(frame.page.page_id)
            pool.unpin(frame.page.page_id)
        assert len(pool) <= 4
        assert pool.evictions >= 2

    def test_evicted_dirty_page_written_back(self, pool, disk):
        frame = pool.new_page()
        first_id = frame.page.page_id
        frame.page.insert(1, b"persist me")
        pool.unpin(first_id, dirty=True)
        for __ in range(6):
            other = pool.new_page()
            pool.unpin(other.page.page_id)
        # Whether or not first page is still cached, disk has the data.
        pool.flush_all()
        raw = disk.read_page(first_id)
        assert b"persist me" in raw

    def test_pinned_pages_never_evicted(self, pool):
        pinned = [pool.new_page() for __ in range(4)]
        with pytest.raises(StorageError):
            pool.new_page()
        # Sanity: all still cached.
        assert len(pool) == 4
        del pinned

    def test_second_chance_prefers_unreferenced(self, pool):
        frames = [pool.new_page() for __ in range(4)]
        for frame in frames:
            pool.unpin(frame.page.page_id)
        # First eviction sweeps all reference bits clear, then drops the
        # oldest (page 1).
        first_extra = pool.new_page()
        pool.unpin(first_extra.page.page_id)
        assert 1 not in pool.cached_page_ids()
        # Re-reference page 2: it now deserves a second chance.
        pool.fetch(2)
        pool.unpin(2)
        second_extra = pool.new_page()
        pool.unpin(second_extra.page.page_id)
        assert 2 in pool.cached_page_ids()  # survived thanks to its bit
        assert 3 not in pool.cached_page_ids()  # evicted instead


class TestFlushing:
    def test_flush_page_clears_dirty(self, pool, disk):
        frame = pool.new_page()
        page_id = frame.page.page_id
        frame.page.insert(1, b"abc")
        pool.unpin(page_id, dirty=True)
        pool.flush_page(page_id)
        assert not frame.dirty
        assert b"abc" in disk.read_page(page_id)

    def test_drop_all_loses_unflushed(self, pool, disk):
        frame = pool.new_page()
        page_id = frame.page.page_id
        frame.page.insert(1, b"volatile")
        pool.unpin(page_id, dirty=True)
        pool.drop_all()
        assert b"volatile" not in disk.read_page(page_id)

    def test_flush_all_then_drop_preserves(self, pool, disk):
        frame = pool.new_page()
        page_id = frame.page.page_id
        frame.page.insert(1, b"durable")
        pool.unpin(page_id, dirty=True)
        pool.flush_all()
        pool.drop_all()
        assert b"durable" in disk.read_page(page_id)


def _fat(tag):
    """A value bigger than half a page: one object per page."""
    return tag * 1100


class TestWriteAheadGate:
    """A write-back forces the log iff ``page_lsn > durable_lsn``.

    Counted, not timed: ``pool.wal_forces`` and ``log.flush_count`` over
    a two-frame pool holding four one-page objects.
    """

    @pytest.fixture
    def storage(self):
        storage = StorageManager(capacity=2)
        storage.oids = [
            storage.create_object(Tid(1), _fat(b"%d0" % index))
            for index in range(4)
        ]
        storage.log_commit(Tid(1))
        storage.pool.flush_all()
        storage.pool.wal_forces = 0
        return storage

    @staticmethod
    def _page_of(storage, oid):
        return storage.objects._locations[oid.value][0]

    def _evict(self, storage, oid):
        """Push ``oid``'s page out by reading the other three objects."""
        page_id = self._page_of(storage, oid)
        for other in storage.oids:
            if other != oid:
                storage.read_object(Tid(99), other)
        assert storage.pool.frame_for(page_id) is None
        return page_id

    def test_committed_page_is_evicted_without_a_force(self, storage):
        target = storage.oids[0]
        storage.write_object(Tid(2), target, _fat(b"A1"))
        storage.log_commit(Tid(2))  # the commit forced the log past it
        flushes = storage.log.flush_count
        page_id = self._evict(storage, target)
        assert storage.pool.wal_forces == 0
        assert storage.log.flush_count == flushes
        assert b"A1A1" in storage.disk.read_page(page_id)

    def test_uncommitted_page_is_evicted_with_exactly_one_force(self, storage):
        target = storage.oids[0]
        storage.write_object(Tid(2), target, _fat(b"A1"))
        flushes = storage.log.flush_count
        page_id = self._evict(storage, target)
        assert storage.pool.wal_forces == 1
        assert storage.log.flush_count == flushes + 1
        assert b"A1A1" in storage.disk.read_page(page_id)
        # What the force was for: the stolen page's undo record is durable.
        assert any(
            isinstance(record, UpdateRecord) and record.tid == Tid(2)
            for record in storage.log.records(durable_only=True)
        )

    def test_stamp_is_the_logs_last_lsn_and_redirtying_raises_it(self, storage):
        target = storage.oids[0]
        storage.write_object(Tid(2), target, _fat(b"A1"))
        frame = storage.pool.frame_for(self._page_of(storage, target))
        first = frame.page_lsn
        assert first == storage.log.last_lsn
        storage.log_commit(Tid(2))
        assert frame.page_lsn == first <= storage.log.durable_lsn
        storage.write_object(Tid(3), target, _fat(b"A2"))
        assert frame.page_lsn == storage.log.last_lsn > first
        assert frame.page_lsn > storage.log.durable_lsn

    def test_flush_page_forces_iff_the_stamp_is_volatile(self, storage):
        target = storage.oids[0]
        page_id = self._page_of(storage, target)
        storage.write_object(Tid(2), target, _fat(b"A1"))
        storage.pool.flush_page(page_id)
        assert storage.pool.wal_forces == 1
        storage.write_object(Tid(2), target, _fat(b"A2"))
        storage.log_commit(Tid(2))
        storage.pool.flush_page(page_id)
        assert storage.pool.wal_forces == 1  # already durable: no force
        assert b"A2A2" in storage.disk.read_page(page_id)

    def test_flush_all_forces_once_iff_some_frame_needs_it(self, storage):
        one, two = storage.oids[:2]
        storage.write_object(Tid(2), one, _fat(b"A1"))
        storage.write_object(Tid(2), two, _fat(b"B1"))
        flushes = storage.log.flush_count
        storage.pool.flush_all()  # two volatile dirty frames, one force
        assert storage.pool.wal_forces == 1
        assert storage.log.flush_count == flushes + 1
        storage.write_object(Tid(2), one, _fat(b"A2"))
        storage.log_commit(Tid(2))
        flushes = storage.log.flush_count
        storage.pool.flush_all()  # dirty, but committed: no force
        assert storage.pool.wal_forces == 1
        assert storage.log.flush_count == flushes
        assert b"A2A2" in storage.disk.read_page(self._page_of(storage, one))

    def test_a_lied_flush_makes_the_next_write_back_force_again(self):
        def build(plan):
            injector = FaultInjector(plan=plan)
            storage = StorageManager(
                log=WriteAheadLog(MemoryLogDevice(injector=injector)),
                injector=injector,
                capacity=2,
            )
            oid = storage.create_object(Tid(1), _fat(b"a0"))
            storage.log_commit(Tid(1))
            storage.pool.flush_all()  # committed: no force
            storage.write_object(Tid(2), oid, _fat(b"a1"))
            storage.log_commit(Tid(2))
            storage.pool.flush_all()  # committed — if the commit's sync was real
            return storage, injector

        clean, probe = build(FaultPlan())
        assert clean.pool.wal_forces == 0
        second_commit = probe.steps_of_kind(LOG_FLUSH)[-1]
        lied, injector = build(FaultPlan(lose_fsync_at={second_commit}))
        assert injector.lied_fsyncs == 1
        # The watermark stayed behind the lie, so the write-back forced.
        assert lied.pool.wal_forces == 1
        assert lied.log.durable_lsn == lied.log.last_lsn

    def test_pools_without_a_log_are_unchanged(self, pool, disk):
        assert pool.wal is None
        pages = []
        for __ in range(6):  # evicts two dirty pages
            frame = pool.new_page()
            frame.page.insert(1, b"x")
            pages.append(frame.page.page_id)
            pool.unpin(frame.page.page_id, dirty=True)
            assert frame.page_lsn == 0
        pool.flush_page(pages[-1])
        pool.flush_all()
        assert pool.wal_forces == 0
        assert all(b"x" in disk.read_page(page_id) for page_id in pages)
