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
store's own: one fetch, too.
"""

import sys

import pytest

from repro.common.errors import UnknownObjectError
from repro.common.ids import ObjectId, Tid
from repro.core.manager import TransactionManager
from repro.storage.page import Page
from repro.storage.store import StorageManager

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


class TestPlacementPinsOnlyThePageItFills:
    """A create pins the one page it fills.  Placement used to fetch,
    ``fits``-test and unpin every cached frame in page-id order; now the
    pool walks its frames under its own lock and pins only the page with
    room — leaving each frame it passes as a fetch would have (one hit,
    ``referenced`` set), so the clock chooses the victims it chose."""

    FULL = b"f" * 4032  # the largest inline value: 35 bytes left beside it
    SMALL = b"s" * 40  # too big for those 35

    def test_a_create_past_sixteen_full_cached_pages_fetches_none(self):
        storage = StorageManager(capacity=16)
        for __ in range(16):
            storage.create_object(T, self.FULL)
        pool = storage.pool
        assert len(pool) == 16
        fetched = []
        plain = pool.fetch

        def recording(page_id):
            fetched.append(page_id)
            return plain(page_id)

        pool.fetch = recording
        hits = pool.hits
        try:
            oid = storage.create_object(T, self.FULL)
        finally:
            del pool.fetch
        assert fetched == []  # 16 at the parent
        assert pool.hits - hits == 16  # the pages passed, as before
        assert storage.read_object(T, oid) == self.FULL

    def test_the_pages_passed_keep_the_bits_a_fetch_left(self):
        storage = StorageManager(capacity=16)
        for __ in range(15):
            storage.create_object(T, self.FULL)
        storage.create_object(T, self.SMALL)  # the sixteenth page has room
        pool = storage.pool
        for frame in pool._frames.values():
            frame.referenced = False
        hits = pool.hits
        storage.create_object(T, self.SMALL)
        assert pool.hits - hits == 16
        assert all(frame.referenced for frame in pool._frames.values())
        assert all(frame.pin_count == 0 for frame in pool._frames.values())

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
