"""The EOS-lite storage manager.

The paper implements the ASSET primitives "in a modified version of the EOS
storage manager", operating on objects in a shared cache.  This package is
a laptop-scale substitute with the same architecture:

* :mod:`repro.storage.page` — fixed-size slotted pages holding objects;
* :mod:`repro.storage.disk` — page stores (file-backed and in-memory);
* :mod:`repro.storage.buffer` — a buffer cache with pinning and clock
  eviction (the "shared cache" the application operates on directly);
* :mod:`repro.storage.objects` — the object store mapping object ids to
  page slots;
* :mod:`repro.storage.log` — the write-ahead log: the before and after
  images the section 4.2 ``write`` algorithm requires, one record per
  update, written before the page is touched;
* :mod:`repro.storage.recovery` — restart recovery (redo winners, undo
  losers, honouring delegation records);
* :mod:`repro.storage.segmented` — what several shards add: placement,
  shared LSNs, the merged log view and its one restart point;
* :mod:`repro.storage.store` — the one facade the transaction manager
  talks to, :class:`~repro.storage.store.StorageManager`, over one
  shard stack (the default) or many, on memory or file devices.
"""

from repro.storage.buffer import BufferPool
from repro.storage.disk import FileDiskManager, InMemoryDiskManager
from repro.storage.log import (
    AbortRecord,
    CheckpointRecord,
    CommitRecord,
    CompensationRecord,
    DelegateRecord,
    FileLogDevice,
    FlushCoalescer,
    MemoryLogDevice,
    UpdateRecord,
    WriteAheadLog,
)
from repro.storage.objects import ObjectStore
from repro.storage.page import PAGE_SIZE, Page
from repro.storage.recovery import RecoveryManager, RecoveryReport
from repro.storage.store import StorageManager

__all__ = [
    "AbortRecord",
    "BufferPool",
    "CheckpointRecord",
    "CommitRecord",
    "CompensationRecord",
    "DelegateRecord",
    "FileDiskManager",
    "FileLogDevice",
    "FlushCoalescer",
    "InMemoryDiskManager",
    "MemoryLogDevice",
    "ObjectStore",
    "PAGE_SIZE",
    "Page",
    "RecoveryManager",
    "RecoveryReport",
    "StorageManager",
    "UpdateRecord",
    "WriteAheadLog",
]
