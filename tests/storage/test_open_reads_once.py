"""Opening a database reads its page file once, in order, and caches
nothing.

The object table is rebuilt from each page's slot directory in one
sequential pass over the disk (``DiskManager.scan``), with no buffer
pool: no page is fetched, none decoded into a ``Page``, no frame is left
behind, and the file disk reads ``SCAN_PAGES`` pages at a time.  These
are counts, with no clock, on a 256-page file database reopened with
its log and recovered, as the benchmark's ``durable_wal`` restarts.
"""

import math
from unittest.mock import patch

import pytest

from repro.common.ids import Tid
from repro.storage.buffer import BufferPool
from repro.storage.disk import SCAN_PAGES, FileDiskManager
from repro.storage.log import FileLogDevice, WriteAheadLog
from repro.storage.page import Page
from repro.storage.store import StorageManager

PAGES = 256
VALUE = b"v" * 3000  # one object per page


class CountingFile:
    """A file object that counts its ``read`` calls."""

    def __init__(self, file):
        self._file = file
        self.reads = 0

    def read(self, *args):
        self.reads += 1
        return self._file.read(*args)

    def __getattr__(self, name):
        return getattr(self._file, name)


@pytest.fixture
def opened(tmp_path):
    """Build the database and close it; then reopen and recover it,
    counting fetches, page decodes and reads of the page file."""
    pages, log = tmp_path / "pages.db", tmp_path / "wal.log"
    storage = StorageManager(
        disk=FileDiskManager(pages),
        log=WriteAheadLog(FileLogDevice(log)),
        capacity=64,
    )
    oids = [storage.create_object(Tid(1), VALUE) for __ in range(PAGES)]
    storage.log_commit(Tid(1))
    storage.checkpoint()  # restart redoes nothing
    storage.close()
    disk = FileDiskManager(pages)
    assert len(disk.page_ids()) == PAGES
    disk._file = CountingFile(disk._file)
    with (
        patch.object(BufferPool, "fetch", autospec=True,
                     side_effect=BufferPool.fetch) as fetch,
        patch.object(Page, "from_bytes", wraps=Page.from_bytes) as from_bytes,
    ):
        storage = StorageManager(
            disk=disk, log=WriteAheadLog(FileLogDevice(log)), capacity=64
        )
        assert storage.recover().redone == 0
    yield storage, oids, fetch.call_count, from_bytes.call_count, disk._file
    storage.close()


def test_open_fetches_no_page(opened):
    __, __, fetches, __, __ = opened
    assert fetches == 0


def test_open_decodes_no_page(opened):
    __, __, __, decodes, __ = opened
    assert decodes == 0


def test_open_leaves_the_pool_empty(opened):
    storage, __, __, __, __ = opened
    assert len(storage.pool) == 0
    assert (storage.pool.hits, storage.pool.misses) == (0, 0)


def test_open_reads_the_page_file_in_chunks(opened):
    __, __, __, __, file = opened
    assert file.reads == math.ceil(PAGES / SCAN_PAGES)


def test_the_table_finds_every_object(opened):
    storage, oids, __, __, __ = opened
    assert storage.objects.object_ids() == sorted(oids)
    assert all(storage.read_object(Tid(0), oid) == VALUE for oid in oids)
