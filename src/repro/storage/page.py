"""Fixed-size slotted pages.

Objects live on pages.  A page is a fixed-size byte array with:

* a header: ``checksum | magic | slot count | data watermark | page id``;
* object data growing upward from the header;
* a slot directory growing downward from the page end, one entry per
  object: ``(offset, length, object id)``.

Deleted slots keep their directory entry (offset set to the tombstone
value) so slot numbers remain stable; compaction reclaims their data space.
The layout is genuinely byte-level — pages round-trip through ``to_bytes``
/ ``from_bytes`` unchanged, which is what the disk manager and crash
simulation rely on.  The checksum, a CRC32 of every byte after it, is
the one check an image gets (:func:`check_image`, which ``from_bytes``
and the table rebuild's :func:`live_slots` share): a torn write fails it
whatever the halves hold, where a walk of the structure would pass a
compaction's data moved under a directory that still looks whole.
"""

from __future__ import annotations

import heapq
import struct
import zlib

from repro.common.errors import StorageError

PAGE_SIZE = 4096
_MAGIC = 0xA55E  # "ASSE(T)"

_HEADER = struct.Struct("<IHHII")  # crc, magic, slot_count, watermark, page_id
_CRC = struct.Struct("<I")
_SLOT_FIELDS = "HHQ"  # offset, length, object id
_SLOT = struct.Struct("<" + _SLOT_FIELDS)
_TOMBSTONE = 0xFFFF
_DIRECTORIES = {}  # slot count -> unpack_from of a directory that long
_RETIRED_LAYOUT = struct.pack("<H", _MAGIC)  # how pre-checksum images begin


class PageFullError(StorageError):
    """The page has no room for the requested insertion."""


class TornPageError(StorageError):
    """A page image that is not whole: its checksum (or magic) is wrong."""


class Page:
    """One slotted page of ``page_size`` bytes."""

    def __init__(self, page_id, page_size=PAGE_SIZE):
        if page_size < _HEADER.size + _SLOT.size:
            raise ValueError("page size too small for header and one slot")
        self.page_id = page_id
        self.page_size = page_size
        # slots: list of (offset, length, oid_value); offset _TOMBSTONE = dead
        self._slots = []
        self._data = bytearray(page_size)
        self._watermark = _HEADER.size
        # Kept up to date by every operation so that ``fits`` and
        # ``insert`` never walk the directory: the bytes live slots hold,
        # and the tombstoned slots' numbers as a min-heap.
        self._live = 0
        self._tombstones = []

    # -- space accounting ---------------------------------------------------

    @property
    def slot_count(self):
        """Total directory entries, including tombstones."""
        return len(self._slots)

    @property
    def live_count(self):
        """Directory entries that hold live objects."""
        return len(self._slots) - len(self._tombstones)

    def _directory_start(self):
        return self.page_size - len(self._slots) * _SLOT.size

    def free_space(self):
        """Contiguous free bytes between data area and slot directory."""
        return self._directory_start() - self._watermark

    def room(self):
        """The most bytes the next :meth:`insert` can store (after
        compaction): a new directory entry costs its size, unless a
        tombstoned one is reused.  What the free-space map holds."""
        entries = len(self._slots) + (not self._tombstones)
        return self.page_size - _HEADER.size - self._live - entries * _SLOT.size

    def fits(self, data_len, reuse_slot=None):
        """Whether ``data_len`` bytes fit (after compaction): as the next
        insert, or as the new value of the live slot ``reuse_slot``,
        whose bytes it gives up (and no new directory entry)."""
        if reuse_slot is None:
            return data_len <= self.room()
        spare = 0 if self._tombstones else _SLOT.size
        return data_len <= self.room() + spare + self._slots[reuse_slot][1]

    # -- operations ----------------------------------------------------------

    def insert(self, oid_value, data):
        """Store ``data`` under a new slot; return the slot number.

        Raises :class:`PageFullError` when the object cannot fit even after
        compaction.  The lowest-numbered tombstoned slot is reused to keep
        the directory small.
        """
        reuse = self._tombstones[0] if self._tombstones else None
        if len(data) > self.room():
            raise PageFullError(
                f"page {self.page_id}: no room for {len(data)} bytes"
            )
        if len(data) > self.free_space() - (0 if reuse is not None else _SLOT.size):
            self.compact()
        offset = self._watermark
        self._data[offset : offset + len(data)] = data
        self._watermark += len(data)
        self._live += len(data)
        if reuse is not None:
            heapq.heappop(self._tombstones)
            self._slots[reuse] = (offset, len(data), oid_value)
            return reuse
        self._slots.append((offset, len(data), oid_value))
        return len(self._slots) - 1

    def read(self, slot):
        """Return ``(oid_value, bytes)`` stored in ``slot``."""
        offset, length, oid_value = self._slot_entry(slot)
        return oid_value, bytes(self._data[offset : offset + length])

    def update(self, slot, data):
        """Replace the object in ``slot`` with ``data`` (same oid).

        Updates in place when the new value is no longer than the old one;
        otherwise relocates within the page, compacting if necessary.
        Raises :class:`PageFullError` when the page cannot hold the new
        value.
        """
        offset, length, oid_value = self._slot_entry(slot)
        if len(data) <= length:
            self._data[offset : offset + len(data)] = data
            self._slots[slot] = (offset, len(data), oid_value)
            self._live -= length - len(data)
            return
        if not self.fits(len(data), reuse_slot=slot):
            raise PageFullError(
                f"page {self.page_id}: no room to grow slot {slot}"
            )
        # A tombstone only while the value is between homes, so that a
        # compaction drops its old bytes: not queued for reuse.
        self._slots[slot] = (_TOMBSTONE, length, oid_value)
        if len(data) > self.free_space():
            self.compact()
        new_offset = self._watermark
        self._data[new_offset : new_offset + len(data)] = data
        self._watermark += len(data)
        self._slots[slot] = (new_offset, len(data), oid_value)
        self._live += len(data) - length

    def delete(self, slot):
        """Tombstone ``slot``; its space is reclaimed at next compaction."""
        offset, length, oid_value = self._slot_entry(slot)
        self._slots[slot] = (_TOMBSTONE, length, oid_value)
        self._live -= length
        heapq.heappush(self._tombstones, slot)

    def compact(self):
        """Rewrite the data area dropping space of tombstoned slots."""
        new_data = bytearray(self.page_size)
        watermark = _HEADER.size
        new_slots = []
        for offset, length, oid_value in self._slots:
            if offset == _TOMBSTONE:
                new_slots.append((_TOMBSTONE, 0, oid_value))
                continue
            new_data[watermark : watermark + length] = self._data[
                offset : offset + length
            ]
            new_slots.append((watermark, length, oid_value))
            watermark += length
        self._data = new_data
        self._slots = new_slots
        self._watermark = watermark

    def items(self):
        """Yield ``(slot, oid_value, bytes)`` for every live object."""
        for slot, (offset, length, oid_value) in enumerate(self._slots):
            if offset != _TOMBSTONE:
                yield slot, oid_value, bytes(self._data[offset : offset + length])

    def _slot_entry(self, slot):
        if not 0 <= slot < len(self._slots):
            raise StorageError(f"page {self.page_id}: no slot {slot}")
        entry = self._slots[slot]
        if entry[0] == _TOMBSTONE:
            raise StorageError(f"page {self.page_id}: slot {slot} is deleted")
        return entry

    # -- serialization -------------------------------------------------------

    def to_bytes(self):
        """Serialize the page to exactly ``page_size`` bytes."""
        raw = bytearray(self._data)
        _HEADER.pack_into(
            raw, 0, 0, _MAGIC, len(self._slots), self._watermark, self.page_id
        )
        cursor = self.page_size
        for offset, length, oid_value in self._slots:
            cursor -= _SLOT.size
            _SLOT.pack_into(raw, cursor, offset, length, oid_value)
        _CRC.pack_into(raw, 0, zlib.crc32(memoryview(raw)[_CRC.size :]))
        return bytes(raw)

    @classmethod
    def from_bytes(cls, raw, page_size=PAGE_SIZE, default_page_id=0):
        """Reconstruct a page from bytes produced by :meth:`to_bytes`,
        after :func:`check_image`: an all-zero image (a page allocated
        but never written back, as a restart may find one) is an empty
        page with ``default_page_id``."""
        header = check_image(raw, page_size, default_page_id)
        if header is None:
            return cls(default_page_id, page_size=page_size)
        __, __, slot_count, watermark, page_id = header
        page = cls(page_id, page_size=page_size)
        page._data = bytearray(raw)
        page._watermark = watermark
        cursor = page_size
        for slot in range(slot_count):
            cursor -= _SLOT.size
            entry = _SLOT.unpack_from(raw, cursor)
            if entry[0] == _TOMBSTONE:
                page._tombstones.append(slot)  # ascending: already a heap
            else:
                page._live += entry[1]
            page._slots.append(entry)
        return page

    def __repr__(self):
        return (
            f"Page(id={self.page_id}, live={self.live_count},"
            f" free={self.free_space()})"
        )


def check_image(raw, page_size, page_id):
    """The one check a page image gets: its header ``(crc, magic, slot
    count, watermark, page id)``, ``None`` if it is all zeros (never
    written back), :class:`TornPageError` if its checksum fails (the
    table rebuild quarantines it), refused by name if it predates them."""
    if len(raw) != page_size:
        raise StorageError(f"expected {page_size} bytes, got {len(raw)}")
    crc, magic, slot_count, watermark, __ = header = _HEADER.unpack_from(raw)
    if magic == 0 and slot_count == 0 and watermark == 0:
        return None
    if magic != _MAGIC or crc != zlib.crc32(memoryview(raw)[_CRC.size :]):
        if magic != _MAGIC and raw[:2] == _RETIRED_LAYOUT:
            raise StorageError(f"page {page_id} predates checksums")
        raise TornPageError(f"page {page_id} fails its checksum")
    return header


def live_slots(raw, page_size, page_id):
    """``(room, live)`` of the image ``raw``, after :func:`check_image`,
    from its header and directory alone: what an insert could store
    there (:meth:`Page.room`) and ``(slot, oid value)`` per live object."""
    header = check_image(raw, page_size, page_id)
    count = header[2] if header else 0
    start = page_size - count * _SLOT.size
    unpack = _DIRECTORIES.get(count)
    if unpack is None:
        unpack = struct.Struct("<" + _SLOT_FIELDS * count).unpack_from
        _DIRECTORIES[count] = unpack
    # (offset, length, oid) per slot, slot 0 last: read backwards.
    flat = unpack(raw, start)
    offsets, lengths, oids = flat[-3::-3], flat[-2::-3], flat[::-3]
    unused = start - _HEADER.size
    if _TOMBSTONE not in offsets:
        return unused - sum(lengths) - _SLOT.size, list(enumerate(oids))
    live = [slot for slot, offset in enumerate(offsets) if offset != _TOMBSTONE]
    return unused - sum(lengths[s] for s in live), [(s, oids[s]) for s in live]
