"""Page stores: where pages live when they are not in the buffer cache.

Two implementations share one interface:

* :class:`FileDiskManager` — a single file of fixed-size pages, the
  persistent configuration;
* :class:`InMemoryDiskManager` — a dict of page images, for tests and
  benchmarks that do not want filesystem traffic.

Both support ``snapshot``/``restore`` so the crash-recovery tests can
capture the exact on-disk state at a simulated crash point, and both
accept a chaos ``injector`` (:mod:`repro.chaos.faults`) that numbers every
page write and sync as an I/O step and can crash or tear it.
"""

from __future__ import annotations

import os
import threading

from repro.common.errors import StorageError
from repro.storage.page import PAGE_SIZE

# Pages a file scan reads at a time: 64 of 4 KiB, one 256 KiB read.
SCAN_PAGES = 64


class DiskManager:
    """Interface for page stores; see module docstring."""

    page_size = PAGE_SIZE
    injector = None  # optional chaos FaultInjector

    def allocate_page(self):
        """Reserve a new page id and return it."""
        raise NotImplementedError

    def read_page(self, page_id):
        """Return the raw bytes of ``page_id``."""
        raise NotImplementedError

    def write_page(self, page_id, raw):
        """Durably store ``raw`` as the image of ``page_id``."""
        raise NotImplementedError

    def page_ids(self):
        """Iterate over all allocated page ids."""
        raise NotImplementedError

    def scan(self):
        """Yield ``(page_id, image)`` of every page in id order, holding
        no lock while the consumer has one: it may write the page."""
        for page_id in self.page_ids():
            yield page_id, self.read_page(page_id)

    def sync(self):
        """Force pending writes to stable storage."""

    def close(self):
        """Release underlying resources."""


class InMemoryDiskManager(DiskManager):
    """A page store backed by a dictionary.

    Fast and convenient for tests; still byte-faithful — it stores the
    serialized page images, not live :class:`Page` objects, so it exercises
    the same serialization paths as the file-backed store.
    """

    def __init__(self, page_size=PAGE_SIZE, injector=None):
        self.page_size = page_size
        self.injector = injector
        self._pages = {}
        self._next_page_id = 1
        self._lock = threading.Lock()

    def allocate_page(self):
        with self._lock:
            page_id = self._next_page_id
            self._next_page_id += 1
            self._pages[page_id] = bytes(self.page_size)
            return page_id

    def read_page(self, page_id):
        try:
            return self._pages[page_id]
        except KeyError:
            raise StorageError(f"no such page: {page_id}") from None

    def write_page(self, page_id, raw):
        if len(raw) != self.page_size:
            raise StorageError(
                f"page image must be {self.page_size} bytes, got {len(raw)}"
            )
        if page_id not in self._pages:
            raise StorageError(f"no such page: {page_id}")
        if self.injector is None:
            self._pages[page_id] = bytes(raw)
            return

        def install(image):
            # A short image is a torn write: the old tail survives.
            if len(image) < self.page_size:
                image = bytes(image) + self._pages[page_id][len(image):]
            self._pages[page_id] = bytes(image)

        self.injector.page_write(page_id, raw, install)

    def sync(self):
        if self.injector is not None:
            self.injector.page_sync(lambda: None)

    def page_ids(self):
        return sorted(self._pages)

    def snapshot(self):
        """Capture the complete on-disk state (for crash simulation)."""
        with self._lock:
            return dict(self._pages), self._next_page_id

    def restore(self, snapshot):
        """Reset the on-disk state to a previously captured snapshot."""
        with self._lock:
            self._pages, self._next_page_id = dict(snapshot[0]), snapshot[1]


class FileDiskManager(DiskManager):
    """A page store backed by one file of consecutive fixed-size pages.

    Page ``n`` occupies bytes ``[(n-1) * page_size, n * page_size)``.
    Page ids start at 1; id 0 is reserved as "no page".
    """

    def __init__(self, path, page_size=PAGE_SIZE, injector=None):
        self.path = str(path)
        self.page_size = page_size
        self.injector = injector
        self._lock = threading.Lock()
        mode = "r+b" if os.path.exists(self.path) else "w+b"
        self._file = open(self.path, mode)
        self._file.seek(0, os.SEEK_END)
        size = self._file.tell()
        if size % page_size:
            raise StorageError(
                f"{self.path}: size {size} not a multiple of page size"
            )
        self._page_count = size // page_size

    def allocate_page(self):
        with self._lock:
            self._page_count += 1
            page_id = self._page_count
            self._file.seek((page_id - 1) * self.page_size)
            self._file.write(bytes(self.page_size))
            return page_id

    def _check(self, page_id):
        if not 1 <= page_id <= self._page_count:
            raise StorageError(f"no such page: {page_id}")

    def read_page(self, page_id):
        with self._lock:
            self._check(page_id)
            self._file.seek((page_id - 1) * self.page_size)
            return self._file.read(self.page_size)

    def write_page(self, page_id, raw):
        if len(raw) != self.page_size:
            raise StorageError(
                f"page image must be {self.page_size} bytes, got {len(raw)}"
            )
        with self._lock:
            self._check(page_id)

            def install(image):
                # A short image is a torn write: the old tail survives
                # on disk because only the prefix is overwritten.
                self._file.seek((page_id - 1) * self.page_size)
                self._file.write(image)

            if self.injector is None:
                install(raw)
            else:
                self.injector.page_write(page_id, raw, install)

    def page_ids(self):
        return range(1, self._page_count + 1)

    def scan(self):
        """One read per :data:`SCAN_PAGES` pages, through the file object
        that took every write; each page is a view of its chunk."""
        size = self.page_size
        for first in range(1, self._page_count + 1, SCAN_PAGES):
            with self._lock:
                self._file.seek((first - 1) * size)
                chunk = memoryview(self._file.read(SCAN_PAGES * size))
            for start in range(0, len(chunk), size):
                yield first + start // size, chunk[start : start + size]

    def sync(self):
        with self._lock:

            def do_sync():
                self._file.flush()
                os.fsync(self._file.fileno())

            if self.injector is None:
                do_sync()
            else:
                self.injector.page_sync(do_sync)

    def close(self):
        with self._lock:
            self._file.close()
