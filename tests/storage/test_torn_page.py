"""A torn page is found by its checksum and rebuilt by redo alone.

The tear that a walk of a page's structure cannot see: a page full of
small objects, one deleted and another grown, so the page *compacts* —
every object behind the deleted one moves down — and the write-back of
that page tears (``TORN_PREFIX`` bytes of the new image over the old
tail).  The new header and data prefix sit over the old slot directory,
whose offsets are all still inside the data area: a well-formed page
whose first slots name their neighbours' bytes.  Its checksum does not
match, so the table rebuild quarantines it, the mark is voided, and redo
takes the newest image of every object from the whole log — while the
restart point stays where it was.

``page_checksum_ignored`` (the compare skipped) and
``void_mark_skips_prefix`` (redo under the void mark reading only the
tail) each turn the sweep below red.
"""

import struct

import pytest

from repro.chaos.faults import (
    PAGE_WRITE,
    TORN_PREFIX,
    CrashPoint,
    FaultInjector,
    FaultPlan,
)
from repro.chaos.stack import read_state
from repro.common.errors import StorageError
from repro.common.ids import Tid
from repro.storage.disk import InMemoryDiskManager
from repro.storage.page import Page, TornPageError
from repro.storage.segmented import ShardedStorageManager
from repro.storage.store import StorageManager
from tests.chaos.mutations import page_checksum_ignored, void_mark_skips_prefix

PER_PAGE = 55  # 50-byte objects: the page is 85% full
GROWN = 30  # the object that grows to 700 bytes: past the free space


def _compacted_pair():
    """A page's image before and after delete-then-grow compacts it."""
    page = Page(1)
    slots = [page.insert(oid, bytes([oid]) * 50) for oid in range(1, 56)]
    old = page.to_bytes()
    page.delete(slots[0])
    free = page.free_space()
    page.update(slots[GROWN], b"g" * 700)
    assert page.free_space() > free - 700  # compaction reclaimed slot 0
    return old, page.to_bytes()


class TestThePageChecksum:
    def test_a_torn_compacted_page_is_refused(self):
        old, new = _compacted_pair()
        torn = new[:TORN_PREFIX] + old[TORN_PREFIX:]
        with pytest.raises(TornPageError):
            Page.from_bytes(torn)
        # Every image to_bytes wrote is whole.
        assert len(list(Page.from_bytes(new).items())) == 54
        assert len(list(Page.from_bytes(old).items())) == 55

    def test_any_flipped_bit_is_refused(self):
        __, new = _compacted_pair()
        for offset in (0, 4, 6, 8, 12, 16, 600, len(new) - 1):
            flipped = bytearray(new)
            flipped[offset] ^= 0x10
            with pytest.raises(TornPageError):
                Page.from_bytes(bytes(flipped))

    def test_a_page_in_the_old_layout_is_refused_by_name(self):
        """The layout before the checksum (``magic u16 | slot_count u16 |
        watermark u32 | page_id u64``): a database written by an earlier
        checkout is refused at open, never quarantined as torn."""
        old_layout = bytearray(4096)
        struct.pack_into("<HHIQ", old_layout, 0, 0xA55E, 0, 16, 3)
        with pytest.raises(StorageError, match="predates checksums") as caught:
            Page.from_bytes(bytes(old_layout), default_page_id=3)
        assert not isinstance(caught.value, TornPageError)
        disk = InMemoryDiskManager()
        disk._pages[disk.allocate_page()] = bytes(old_layout)
        with pytest.raises(StorageError, match="predates checksums"):
            StorageManager(disk=disk)


def _shard_stores(storage):
    return getattr(storage, "shards", [storage])


def _delete_then_grow(storage, model):
    """Fill each page with 50-byte objects and checkpoint; then one
    transaction deletes each page's first object and grows its 31st to
    700 bytes, and a checkpoint writes the compacted pages back.
    ``model`` holds what is committed, updated as each commit returns."""
    per_store = PER_PAGE * len(_shard_stores(storage))
    oids = [
        storage.create_object(Tid(1), bytes([n % 251]) * 50)
        for n in range(per_store)
    ]
    storage.log_commit(Tid(1))
    model.update((oid.value, bytes([n % 251]) * 50) for n, oid in enumerate(oids))
    storage.checkpoint()
    changed = dict(model)
    for store in _shard_stores(storage):
        mine = [oid for oid in oids if oid.value in store.objects._locations]
        assert len(mine) == PER_PAGE
        assert len({store.objects._locations[o.value][0] for o in mine}) == 1
        storage.delete_object(Tid(2), mine[0])
        del changed[mine[0].value]
        storage.write_object(Tid(2), mine[GROWN], b"g" * 700)
        changed[mine[GROWN].value] = b"g" * 700
    storage.log_commit(Tid(2))
    model.clear()
    model.update(changed)
    storage.checkpoint()


def _build(n_shards, plan=FaultPlan()):
    injector = FaultInjector(plan=plan)
    if n_shards is None:
        return StorageManager(injector=injector), injector
    return ShardedStorageManager(n_shards=n_shards, injector=injector), injector


def _sweep(n_shards, compactions_only=False):
    """Tear every page write of the workload in turn — or only the
    write-backs of compacted pages, which follow the first checkpoint's
    — and for each, the restart's report and every object that differs
    from the model.  (Unchecked, a tear of the first checkpoint's pages
    over their zeroed images is garbage that no read survives.)"""
    storage, injector = _build(n_shards)
    _delete_then_grow(storage, {})
    steps = [s.number for s in injector.trace if s.kind == PAGE_WRITE]
    pages = len(_shard_stores(storage))
    assert len(steps) == 2 * pages
    if compactions_only:
        steps = steps[pages:]
    outcomes = []
    for step in steps:
        storage, injector = _build(n_shards, FaultPlan(torn_page_at=step))
        model = {}
        with pytest.raises(CrashPoint):
            _delete_then_grow(storage, model)
        storage.crash()
        report = storage.recover()
        state = read_state(storage)
        wrong = sorted(
            oid for oid in model.keys() | state.keys()
            if state.get(oid) != model.get(oid)
        )
        damaged = [
            page for store in _shard_stores(storage)
            for page in store.objects.damaged_pages
        ]
        outcomes.append((step, report, wrong, damaged))
    return outcomes


SHARDS = pytest.mark.parametrize("n_shards", [None, 2])


@SHARDS
class TestTornCompaction:
    def test_every_torn_write_back_is_found_and_rebuilt(self, n_shards):
        for step, report, wrong, damaged in _sweep(n_shards):
            assert damaged, f"torn@{step}: no page quarantined"
            assert wrong == [], f"torn@{step}: objects {wrong} wrong"
            assert report.redo_from == 0

    def test_restart_keeps_its_point(self, n_shards):
        """The tear of the compacted page: restart opens at the point
        the first checkpoint set and decodes only the tail behind it."""
        step, report, __, __ = _sweep(n_shards, compactions_only=True)[-1]
        assert report.restart_from > 0
        assert report.scanned < report.restart_from
        if n_shards is None:
            assert (report.restart_from, report.scanned) == (57, 5)

    def test_skipping_the_checksum_is_caught(self, n_shards):
        with page_checksum_ignored():
            outcomes = _sweep(n_shards, compactions_only=True)
        assert all(wrong and not damaged for __, __, wrong, damaged in outcomes)

    def test_a_void_mark_that_skips_the_prefix_is_caught(self, n_shards):
        with void_mark_skips_prefix():
            outcomes = _sweep(n_shards, compactions_only=True)
        assert all(wrong and damaged for __, __, wrong, damaged in outcomes)


def test_a_named_object_keeps_its_shard_after_a_torn_page():
    """Named objects are placed by their name's hash, which no log
    record carries, so restart learns their shard from the segment
    holding their images.  Under a void mark those images may all lie
    below the restart point: the directory takes them from the redo
    that reads them, or those on the torn page whose id hashes to the
    other shard would be rebuilt there, away from every image of theirs."""
    store = ShardedStorageManager(n_shards=2)
    oids = [
        store.create_object(Tid(1), b"v" * 50, name=f"obj{n}")
        for n in range(40)
    ]
    store.log_commit(Tid(1))
    store.checkpoint()
    placement = {oid.value: store.router.shard_of(oid) for oid in oids}
    moved = next(oid for oid in oids if placement[oid.value] != oid.value % 2)
    shard = store.shards[placement[moved.value]]
    page_id = shard.objects._locations[moved.value][0]
    image = shard.disk.read_page(page_id)
    shard.disk._pages[page_id] = image[:8] + bytes(len(image) - 8)
    store.crash()
    report = store.recover()
    assert shard.objects.damaged_pages == [page_id] and report.redo_from == 0
    assert {o.value: store.router.shard_of(o) for o in oids} == placement
    assert all(store.read_object(Tid(0), oid) == b"v" * 50 for oid in oids)
