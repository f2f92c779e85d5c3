"""A stand-in for device sync latency, so flush *count* moves throughput.

``durable_wal`` keeps its log and page file inside the checkout, where a
real ``fsync`` costs whatever the shared host's disk queue says at that
moment (measured: six rounds of the same code ran 132–288 units/s).  While the
workload runs, ``os.fsync`` is replaced in this process by
:class:`PacedSync`: a fixed busy loop of ``SYNC_SPINS`` iterations — 200 µs
on a quiet core of the reference sandbox, and like everything else
longer when the host runs slow, so that ``perf.hostclock`` reads it as
200 µs whenever it is taken — that counts
its calls and remembers how long each file was at its last sync.  The
program's own flush path — encode, buffered write, ``file.flush()`` to
the operating system — still runs unchanged; only the device's answer
time is simulated, and every sync costs the same.
"""

from __future__ import annotations

import os

SYNC_SPINS = 13_000


class PacedSync:
    """Replaces ``os.fsync`` between ``install()`` and ``remove()``."""

    def __init__(self):
        self.calls = 0
        self.synced_size = {}  # inode -> file size at its last sync
        self._real = None

    def __call__(self, fd):
        self.calls += 1
        status = os.fstat(fd)
        self.synced_size[status.st_ino] = status.st_size
        for _ in range(SYNC_SPINS):
            pass

    def install(self):
        self._real = os.fsync
        os.fsync = self

    def remove(self):
        if self._real is not None:
            os.fsync = self._real
            self._real = None

    def cut_power(self, path):
        """Truncate ``path`` to what had been synced: an append-only file
        loses exactly the bytes written after its last sync."""
        size = self.synced_size.get(os.stat(path).st_ino)
        if size is not None:
            os.truncate(path, size)
