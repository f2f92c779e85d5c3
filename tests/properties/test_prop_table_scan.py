"""Property: the table the scan builds is the table the walk built.

At open each shard's object table is rebuilt in one pass over its disk's
page images, reading only each slot directory, with no buffer pool.
Hypothesis generates page stores — on memory and file disks, at one and
two shards — that mix live pages, pages with tombstones, compacted
pages, pages allocated but never written, torn pages (a
``TORN_PREFIX``-byte prefix of a newer image over the old tail, or over
the zeros of a page never written before) and pages in the layout from
before checksums.  Each store is opened twice: once as it opens now, once
with ``table_by_walk`` from ``tests/storage/scan_oracle.py``, which
fetches every page through the pool as the rebuild used to.  Both give
the same table, free-space map (the walk's from each decoded page's
directory) and ``damaged_pages``, the same injector trace (the
quarantines' page writes and marker appends, in order), the same log
and the same images on disk — or refuse the store with the same error.
"""

import os
import struct
import tempfile
from contextlib import nullcontext

from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.chaos.faults import TORN_PREFIX, FaultInjector
from repro.common.errors import StorageError
from repro.storage.disk import FileDiskManager, InMemoryDiskManager
from repro.storage.page import PAGE_SIZE, Page
from repro.storage.store import StorageManager
from tests.storage.scan_oracle import table_by_walk

MAX_EXAMPLES = 2000 if os.environ.get("CHAOS_BUDGET") == "long" else 300

KINDS = (
    "live", "tombstoned", "compacted", "blank", "torn", "torn",
    "torn_first_write", "retired",
)
page_spec = st.tuples(
    st.sampled_from(KINDS),
    st.lists(st.integers(1, 700), min_size=1, max_size=8),  # object sizes
    st.integers(0, 255),  # which slots to delete, as bits
)
store = st.lists(st.lists(page_spec, max_size=6), min_size=1, max_size=2)


class Oids:
    def __init__(self):
        self.next = 1

    def take(self):
        self.next += 1
        return self.next - 1


def _filled(page_id, sizes, oids):
    page = Page(page_id)
    for size in sizes:
        if page.fits(size):
            oid = oids.take()
            page.insert(oid, bytes([oid % 251]) * size)
    return page


def _delete(page, bits):
    """Tombstone the slots ``bits`` names, and at least one."""
    slots = [slot for slot, __, __ in page.items()]
    doomed = [slot for slot in slots if bits >> slot & 1] or slots[:1]
    for slot in doomed:
        page.delete(slot)


def _image(kind, sizes, bits, page_id, oids):
    if kind == "blank":
        return bytes(PAGE_SIZE)
    if kind == "retired":
        old_layout = bytearray(PAGE_SIZE)
        struct.pack_into("<HHIQ", old_layout, 0, 0xA55E, 0, 16, page_id)
        return bytes(old_layout)
    page = _filled(page_id, sizes, oids)
    old = page.to_bytes()
    if kind == "live":
        return old
    _delete(page, bits)
    if kind == "tombstoned":
        return page.to_bytes()
    page.compact()
    if kind == "compacted":
        return page.to_bytes()
    page.insert(oids.take(), b"n" * 40)  # reuses a tombstone
    if kind == "torn_first_write":
        old = bytes(PAGE_SIZE)
    return page.to_bytes()[:TORN_PREFIX] + old[TORN_PREFIX:]


def _disk(kind, path, images):
    disk = InMemoryDiskManager() if kind == "memory" else FileDiskManager(path)
    for image in images:
        disk.write_page(disk.allocate_page(), image)
    return disk


def _open(disk_kind, shard_images, root, walk):
    """Open a store over fresh disks holding ``shard_images``: what its
    tables, quarantines, log, trace and disks hold afterwards."""
    injector = FaultInjector()
    disks = [
        _disk(disk_kind, os.path.join(root, f"pages{n}.db"), images)
        for n, images in enumerate(shard_images)
    ]
    for disk in disks:
        disk.injector = injector
    try:
        with table_by_walk() if walk else nullcontext():
            storage = StorageManager(disk=disks, injector=injector)
        opened = [
            (
                dict(shard.objects._locations),
                list(shard.objects._room.items()),  # in page-id order
                list(shard.objects.damaged_pages),
                list(shard.log.records()),
            )
            for shard in storage.shards
        ]
    except StorageError as error:
        opened = (type(error), str(error))
    on_disk = [
        [bytes(disk.read_page(page_id)) for page_id in disk.page_ids()]
        for disk in disks
    ]
    for disk in disks:
        disk.close()
    return opened, injector.trace, on_disk


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(disk_kind=st.sampled_from(["memory", "file"]), shards=store)
def test_the_scan_builds_the_table_the_walk_built(disk_kind, shards):
    oids = Oids()
    shard_images = [
        [
            _image(kind, sizes, bits, page_id, oids)
            for page_id, (kind, sizes, bits) in enumerate(specs, start=1)
        ]
        for specs in shards
    ]
    with tempfile.TemporaryDirectory() as root:
        os.mkdir(os.path.join(root, "walk"))
        os.mkdir(os.path.join(root, "scan"))
        walked = _open(disk_kind, shard_images, os.path.join(root, "walk"), True)
        scanned = _open(disk_kind, shard_images, os.path.join(root, "scan"), False)
    opened = scanned[0]
    event(
        "refused" if isinstance(opened, tuple)
        else "quarantined" if any(damaged for __, __, damaged, __ in opened)
        else "whole"
    )
    assert scanned == walked
