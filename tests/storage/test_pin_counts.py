"""An object operation touches its page once — as counts, no clock.

``StorageManager.write_object`` used to pin its page four times (in
``frame_for``, for the before image, to parse the large-object tag, to
update), enter ``ObjectStore._lock`` three times and copy the slot
twice; ``read_object`` pinned twice.  Now ``frame_for`` is the one place
an operation pins: the exact ``pool.hits + pool.misses`` deltas below,
``ObjectStore._lock`` entered at most twice and one ``Page.read`` per
inline write.  The pin an operation holds is never fetched again inside
it (in-place paths), and the frameless entry — ``install`` for undo and
restart redo, the state readers — is the same method under a pin of the
store's own: one fetch, too.  A create asks its shard's free-space map
for the page to fill and pins that page alone, cached or not: no walk
of the pool's frames, no hit counted for a page it passed.
"""

import sys

import pytest

from repro.common.errors import UnknownObjectError
from repro.common.ids import ObjectId, Tid
from repro.core.manager import TransactionManager
from repro.storage.disk import InMemoryDiskManager
from repro.storage.page import Page
from repro.storage.store import StorageManager
from tests.chaos.mutations import free_map_skips_deletes

T = Tid(1)
LARGE = 9000  # three chunks and a header


@pytest.fixture
def storage():
    return StorageManager(capacity=16)


def _fetches(storage, operation, *args):
    """Pages fetched (in order) by one call, and its result."""
    pool = storage.pool
    fetched = []
    plain = pool.fetch

    def recording(page_id):
        fetched.append(page_id)
        return plain(page_id)

    pool.fetch = recording
    before = pool.hits + pool.misses
    try:
        result = operation(*args)
    finally:
        del pool.fetch
    assert pool.hits + pool.misses - before == len(fetched)
    return fetched, result


def _anchor_page(storage, oid):
    return storage.objects._locations[oid.value][0]


class _CountingLock:
    def __init__(self, lock):
        self.lock = lock
        self.entered = 0

    def __enter__(self):
        self.entered += 1
        return self.lock.__enter__()

    def __exit__(self, *exc):
        return self.lock.__exit__(*exc)


class TestOnePinPerOperation:
    def test_read_object_fetches_once(self, storage):
        oid = storage.create_object(T, b"value")
        fetched, value = _fetches(storage, storage.read_object, T, oid)
        assert value == b"value"
        assert fetched == [_anchor_page(storage, oid)]

    def test_inline_write_fetches_once(self, storage):
        oid = storage.create_object(T, b"value")
        fetched, __ = _fetches(storage, storage.write_object, T, oid, b"other")
        assert fetched == [_anchor_page(storage, oid)]
        assert storage.read_object(T, oid) == b"other"

    def test_inline_delete_fetches_once(self, storage):
        oid = storage.create_object(T, b"value")
        page = _anchor_page(storage, oid)
        fetched, __ = _fetches(storage, storage.delete_object, T, oid)
        assert fetched == [page]
        assert not storage.objects.exists(oid)

    def test_install_over_an_inline_object_fetches_once(self, storage):
        oid = storage.create_object(T, b"value")
        fetched, __ = _fetches(storage, storage.objects.install, oid, b"undo")
        assert fetched == [_anchor_page(storage, oid)]
        assert storage.objects.read(oid) == b"undo"
        fetched, __ = _fetches(storage, storage.objects.install, oid, None)
        assert len(fetched) == 1 and not storage.objects.exists(oid)

    def test_large_read_fetches_the_anchor_once_and_each_chunk(self, storage):
        value = b"L" * LARGE
        oid = storage.create_object(T, value)
        chunks = -(-LARGE // storage.objects._max_inline)
        fetched, got = _fetches(storage, storage.read_object, T, oid)
        assert got == value
        assert len(fetched) == 1 + chunks
        assert fetched[0] == _anchor_page(storage, oid)

    def test_a_semantic_operation_is_two_fetches(self):
        manager = TransactionManager()
        tid = manager.initiate()
        manager.begin(tid)
        oid = manager.create_object(tid, b"1")
        fetched, __ = _fetches(
            manager.storage, manager.try_operation, tid, oid, "write",
            lambda value: (value + b"1", None),
        )
        assert len(fetched) == 2  # the read's pin and the write's: was 6


class TestOneLatchCycleReadsTheSlotOnce:
    def test_inline_write_copies_the_slot_once_and_locks_at_most_twice(
        self, storage, monkeypatch
    ):
        oid = storage.create_object(T, b"value")
        copies = []
        plain = Page.read

        def counting(self, slot):
            copies.append(slot)
            return plain(self, slot)

        monkeypatch.setattr(Page, "read", counting)
        lock = storage.objects._lock = _CountingLock(storage.objects._lock)
        storage.write_object(T, oid, b"other")
        assert len(copies) == 1  # the before image is also the tag check
        assert lock.entered <= 2  # was 3: frame_for, read, write
        copies.clear()
        lock.entered = 0
        assert storage.read_object(T, oid) == b"other"
        assert (len(copies), lock.entered) == (1, 1)

    def test_the_before_image_logged_is_the_slot_read_once(self, storage):
        oid = storage.create_object(T, b"before")
        storage.write_object(T, oid, b"after")
        record = storage.log.records()[-1]
        assert (record.before, record.after) == (b"before", b"after")


class _CountingFrames(dict):
    """A pool's frame table that counts the walks made of it."""

    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()

    def items(self):
        self.walks += 1
        return super().items()

    def values(self):
        self.walks += 1
        return super().values()

    def keys(self):
        self.walks += 1
        return super().keys()


def _placing(storage, value):
    """Create ``value``, counting what placement asked of the pool: the
    pages fetched, hits, frames walked, frames whose clock bit was set.
    """
    pool = storage.pool
    pool._frames = _CountingFrames(pool._frames)
    for frame in pool._frames.values():
        frame.referenced = False
    pool._frames.walks = 0
    hits = pool.hits
    fetched = []
    plain = pool.fetch

    def recording(page_id):
        fetched.append(page_id)
        return plain(page_id)

    pool.fetch = recording
    try:
        oid = storage.create_object(T, value)
    finally:
        del pool.fetch
    counts = fetched, pool.hits - hits, pool._frames.walks, [
        page_id for page_id, frame in dict.items(pool._frames)
        if frame.referenced
    ]
    assert storage.read_object(T, oid) == value
    return counts


class TestPlacementAsksTheFreeSpaceMap:
    """A create asks the shard's free-space map for the first page, in
    page-id order, with room, and pins that one page — cached or not —
    or a new one.  Placement used to walk every cached frame in page-id
    order (``BufferPool.pin_first``), counting a hit and setting the
    clock bit of each, and saw no page the pool did not hold."""

    FULL = b"f" * 4032  # the largest inline value: 35 bytes left beside it
    SMALL = b"s" * 40  # too big for those 35

    def _sixteen(self, last=FULL):
        disk = InMemoryDiskManager()
        storage = StorageManager(disk=disk, capacity=16)
        for __ in range(15):
            storage.create_object(T, self.FULL)
        storage.create_object(T, last)
        storage.log_commit(T)
        storage.checkpoint()
        assert len(storage.pool) == 16 and disk.page_ids() == list(range(1, 17))
        return storage

    @staticmethod
    def _cold(storage):
        """The same pages under a fresh open: nothing cached."""
        reopened = StorageManager(disk=storage.disk, log=storage.log)
        assert len(reopened.pool) == 0
        return reopened

    def test_a_create_past_sixteen_full_cached_pages_touches_none(self):
        storage = self._sixteen()
        fetched, hits, walks, touched = _placing(storage, self.FULL)
        assert (fetched, hits, walks) == ([], 0, 0)  # [], 16, 1 before
        # Only the new page's frame is referenced: the clock evicted one
        # of the sixteen for it and re-referenced none.
        assert touched == [17]

    def test_a_create_past_sixteen_full_pages_after_a_cold_open(self):
        storage = self._cold(self._sixteen())
        fetched, hits, walks, touched = _placing(storage, self.FULL)
        assert (fetched, hits, walks) == ([], 0, 0)  # [], 0, 1 before
        assert touched == [17] and storage.pool.misses == 0

    def test_a_create_beside_one_page_with_room_fetches_it_once(self):
        storage = self._sixteen(last=self.SMALL)
        fetched, hits, walks, touched = _placing(storage, self.SMALL)
        assert (fetched, hits, walks, touched) == ([16], 1, 0, [16])
        # Before: no fetch, 16 hits, one walk, all 16 frames referenced.

    def test_a_create_beside_one_uncached_page_with_room_fetches_it_once(
        self,
    ):
        storage = self._cold(self._sixteen(last=self.SMALL))
        fetched, hits, walks, touched = _placing(storage, self.SMALL)
        assert (fetched, hits, walks, touched) == ([16], 0, 0, [16])
        assert storage.pool.misses == 1
        assert len(storage.disk.page_ids()) == 16  # a 17th before

    def test_a_create_fills_the_room_a_delete_left(self):
        """A delete raises its page's entry, so the next create that fits
        there goes there — one fetch of that page, which the open left
        uncached — and not to a new page.  ``free_map_skips_deletes``
        turns this red."""
        storage = self._cold(self._sixteen())
        oid = storage.objects.object_ids()[2]
        page_id = storage.objects._locations[oid][0]
        storage.delete_object(T, ObjectId(oid))
        fetched, __, walks, __ = _placing(storage, self.FULL)
        assert (fetched, walks) == ([page_id], 0)
        assert len(storage.disk.page_ids()) == 16

    def test_a_map_that_skips_deletes_is_caught(self):
        with free_map_skips_deletes(), pytest.raises(AssertionError):
            self.test_a_create_fills_the_room_a_delete_left()

    def test_redo_of_256_small_objects_walks_no_slot_directory(self):
        """Restart redo re-creates 256 small objects onto one page.  Each
        create summed the slot directory twice and walked it for a
        tombstone once: 768 generator frames of ``storage/page.py`` at
        the parent, none now."""
        storage = StorageManager()
        for __ in range(256):
            storage.create_object(T, b"s")
        storage.log_commit(T)
        storage.crash()
        page_module = sys.modules[Page.__module__].__file__
        generators = set()

        def profiler(frame, event, arg):
            code = frame.f_code
            if (
                event == "call"
                and code.co_name == "<genexpr>"
                and code.co_filename == page_module
            ):
                generators.add(frame)

        sys.setprofile(profiler)
        try:
            report = storage.recover()
        finally:
            sys.setprofile(None)
        assert report.redone == 256
        assert len(storage.pool) == 1  # one page holds them all
        assert len(generators) == 0


class TestUnknownObjectsPinNothing:
    @pytest.mark.parametrize("name", ["read_object", "delete_object"])
    def test_unknown_oid_raises_before_any_fetch(self, storage, name):
        with pytest.raises(UnknownObjectError):
            _fetches(storage, getattr(storage, name), T, ObjectId(99))
        assert storage.pool.hits + storage.pool.misses == 0

    def test_a_chunk_id_is_not_an_object(self, storage):
        oid = storage.create_object(T, b"L" * LARGE)
        chunk = next(
            value for value in storage.objects._locations if value != oid.value
        )
        with pytest.raises(UnknownObjectError):
            storage.read_object(T, ObjectId(chunk))
        with pytest.raises(UnknownObjectError):
            storage.objects.read(ObjectId(chunk))
