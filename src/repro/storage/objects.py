"""The object store: persistent objects on slotted pages.

Maps :class:`~repro.common.ids.ObjectId` values to ``(page, slot)``
locations, placing new objects on the first page with room and
allocating pages as needed.  The object table and the free-space map are
volatile — on open both are rebuilt by scanning pages, which is also how
restart recovery re-discovers objects whose creation survived a crash.

Values at this layer are raw bytes; typed views (counters, records, …)
are provided by the semantics layer above.

**An operation is one pin, one latch cycle, one slot read.**  The
caller pins the object's anchor page once (:meth:`ObjectStore.frame_for`),
latches that frame and hands the pin to ``read`` / ``write`` /
``delete``, which work on the frame it holds — the paper's cache, where
the cached object is reached once and "no searching is needed".  Called
without a pin (undo, restart redo, state readers) the same methods take
one themselves for as long as they are on the anchor page.

**Large objects.**  EOS supports objects bigger than a page via segment
chains; so does this store.  A value that does not fit in one page is
split into chunks, each stored under a *chunk id* (the object's id with a
reserved high bit set), and the object's own slot holds a small header
naming the chunk count.  Chunk slots are invisible as objects — the table
rebuild recognizes the high bit — and reads reassemble the chunks in
order.  All of this is below the logging layer, which sees whole values.
"""

from __future__ import annotations

import struct
import threading

from repro.common.errors import (
    QuarantinedObjectError,
    StorageError,
    UnknownObjectError,
)
from repro.storage.page import Page, PageFullError, TornPageError, live_slots

# Chunk ids: bit 62 set, then 16 bits of chunk index, then the owner id.
_CHUNK_FLAG = 1 << 62
_CHUNK_SHIFT = 44
_OWNER_MASK = (1 << _CHUNK_SHIFT) - 1
# Every stored slot value carries a one-byte tag so an inline value can
# never be mistaken for a large-object header.
_TAG_INLINE = b"\x00"
_TAG_LOB = b"\x01"
_LOB_HEADER = struct.Struct("<II")  # chunk count, total length


def _chunk_id(owner_value, index):
    return _CHUNK_FLAG | (index << _CHUNK_SHIFT) | owner_value


def _is_chunk(oid_value):
    return bool(oid_value & _CHUNK_FLAG)


class Pinned:
    """An object's anchor frame, pinned for one operation, and its slot
    there.  ``raw`` is the slot's bytes once read under the caller's
    latch: the before image a write or delete logs also tells inline
    from large, so nothing is copied or parsed twice.  ``owned`` marks a
    pin the store took for itself and gives back as soon as it is done
    with the anchor page."""

    __slots__ = ("frame", "slot", "raw", "owned")

    def __init__(self, frame, slot):
        self.frame = frame
        self.slot = slot
        self.raw = None
        self.owned = False


class ObjectStore:
    """CRUD for byte-valued persistent objects over a buffer pool."""

    def __init__(self, buffer_pool):
        self.pool = buffer_pool
        self._locations = {}
        # The free-space map: page id -> ``Page.room()`` for every page
        # of the disk, in id order; and a bound on its largest entry.
        self._room = {}
        self._most = 0
        self._lock = threading.RLock()
        # Conservative single-page payload bound: page size minus header
        # and slot overhead.  Values above it are chunked.
        self._max_inline = self.pool.disk.page_size - 64
        self.damaged_pages = []  # every page quarantined since open
        self._rebuild_table()

    def _rebuild_table(self):
        """Rebuild the object table and the free-space map (open /
        recovery) from the slot directories of one in-order pass over
        the disk, caching nothing.

        A page that is not whole (a torn write, caught by its checksum
        in :func:`~repro.storage.page.check_image`) is *quarantined*:
        reset to an empty page and skipped.  Redo then re-creates every
        object that belongs on it from the log's newest images — which
        is why torn data pages are recoverable at all.

        An id live on two pages (a relocation whose two pages did not
        both reach disk before a crash) keeps its highest-numbered copy,
        and the others are deleted here, before redo.  Every checkpoint
        flushes every page, so such an object was relocated by an image
        above the mark, which redo reinstalls over the copy kept; a
        stale copy left live would outlive the object's later delete.
        """
        with self._lock:
            self.pool.dropped = False
            self._locations.clear()
            self._room.clear()
            disk, slots = self.pool.disk, 0
            for page_id, image in disk.scan():
                try:
                    room, live = live_slots(image, disk.page_size, page_id)
                    self._room[page_id] = room
                except TornPageError:
                    self._quarantine(page_id)
                    continue
                slots += len(live)
                for slot, oid_value in live:
                    self._locations[oid_value] = (page_id, slot)
            self._most = max(self._room.values(), default=0)
            if slots != len(self._locations):
                self._drop_stale_copies()

    def _drop_stale_copies(self):
        """Delete every live slot the table does not name: the other
        copies of an id the scan found on two pages (``_lock`` held)."""
        disk = self.pool.disk
        stale = [
            (page_id, slot)
            for page_id, image in disk.scan()
            for slot, oid_value in live_slots(image, disk.page_size, page_id)[1]
            if self._locations[oid_value] != (page_id, slot)
        ]
        for page_id, slot in stale:
            self._delete_slot(page_id, slot)

    def refresh_table(self):
        """Restart's table and map: rebuilt only if the cache they were
        kept by has been dropped since (a crash) — a fresh open just
        built them."""
        if self.pool.dropped:
            self._rebuild_table()

    def _quarantine(self, page_id):
        """Replace a damaged page with a fresh empty one.

        Resetting the page destroys the evidence that it was torn, and
        what it held may have been written last below the restart point,
        so the mark is voided first, durably: a marker with ``redo_lsn``
        0, under which this restart and every later one, until a real
        checkpoint has flushed the rebuilt pages, redoes from the whole
        log.  The restart point stays: analysis needs nothing below it.
        """
        self.damaged_pages.append(page_id)
        if self.pool.wal is not None:
            self.pool.wal.log_checkpoint((), redo_lsn=0)
        empty = Page(page_id, page_size=self.pool.disk.page_size)
        self.pool.disk.write_page(page_id, empty.to_bytes())
        self._room[page_id] = empty.room()

    # -- lifecycle ------------------------------------------------------------

    def create(self, value, oid):
        """Store ``value`` as new object ``oid`` and return the id.

        Ids are the storage manager's to allocate (a new object's, or
        one recovery re-creates); ``oid`` must not already exist.
        """
        with self._lock:
            if oid in self._locations:
                raise StorageError(f"object already exists: {oid!r}")
            if _is_chunk(oid):
                raise StorageError(f"reserved (chunk) object id: {oid!r}")
            self._store_value(int(oid), value)
            return oid

    def _store_value(self, oid_value, value):
        """Store ``value`` under ``oid_value``, chunking when oversized."""
        if len(value) <= self._max_inline:
            page_id, slot = self._place(oid_value, _TAG_INLINE + value)
            self._locations[oid_value] = (page_id, slot)
            return
        chunk_size = self._max_inline
        chunks = [
            value[start : start + chunk_size]
            for start in range(0, len(value), chunk_size)
        ]
        for index, chunk in enumerate(chunks):
            cid = _chunk_id(oid_value, index)
            orphan = self._locations.get(cid)
            if orphan is not None:
                # A chunk a crash left behind without its header (see
                # ``_drop_value``): this one replaces it, not joins it.
                self._delete_slot(*orphan)
            page_id, slot = self._place(cid, chunk)
            self._locations[cid] = (page_id, slot)
        header = _TAG_LOB + _LOB_HEADER.pack(len(chunks), len(value))
        page_id, slot = self._place(oid_value, header)
        self._locations[oid_value] = (page_id, slot)

    def _drop_value(self, oid_value, pinned):
        """Remove ``oid_value``'s slot, on the frame ``pinned`` holds, and
        any chunk slots behind it."""
        header = self._parse_lob_header(pinned.raw)
        pinned.frame.page.delete(pinned.slot)
        self._note(pinned.frame.page)
        del self._locations[oid_value]
        self._release(pinned, dirty=True)
        if header is not None:
            count, __ = header
            for index in range(count):
                # A crash can leave a header on disk whose chunk pages
                # never got there; redo then overwrites such an object.
                location = self._locations.pop(_chunk_id(oid_value, index), None)
                if location is not None:
                    self._delete_slot(*location)

    def _delete_slot(self, page_id, slot):
        frame = self.pool.fetch(page_id)
        try:
            frame.page.delete(slot)
            self._note(frame.page)
        finally:
            self.pool.unpin(page_id, dirty=True)

    @staticmethod
    def _parse_lob_header(raw):
        """``(chunk_count, total_len)`` if ``raw`` is a LOB header."""
        if not raw.startswith(_TAG_LOB):
            return None
        count, total = _LOB_HEADER.unpack(raw[1:])
        return count, total

    def _place(self, oid_value, value):
        """Put the value on the first page, in page-id order, that the
        free-space map gives room for, else on a new page, pinning only
        that page; return its location.  "Nothing fits" is one compare:
        a search that finds no room lowers the bound to the largest entry,
        and only ``_note`` raises it."""
        size, page_id, pool = len(value), None, self.pool
        if size <= self._most:
            for page_id, room in self._room.items():
                if room >= size:
                    break
            else:
                page_id, self._most = None, max(self._room.values())
        page = (pool.new_page() if page_id is None else pool.fetch(page_id)).page
        try:
            return page.page_id, page.insert(oid_value, value)
        except PageFullError:
            raise StorageError(
                f"value of {len(value)} bytes exceeds page capacity"
            ) from None
        finally:
            self._note(page)
            pool.unpin(page.page_id, dirty=True)

    def _note(self, page):
        """``page``'s live bytes or directory changed: so does its entry."""
        room = self._room[page.page_id] = page.room()
        if room > self._most:
            self._most = room

    def exists(self, oid):
        """Whether ``oid`` names a live object."""
        return oid in self._locations and not _is_chunk(oid)

    def _read_slot(self, oid, index):
        """Chunk ``index`` of large object ``oid``, from whatever page
        holds it.  With a page quarantined since the open, a chunk the
        table does not name lay on it: the object is poisoned, and the
        access says so.  With none, the table itself is wrong."""
        location = self._locations.get(_chunk_id(oid, index))
        if location is None:
            if self.damaged_pages:
                raise QuarantinedObjectError(oid)
            raise StorageError(f"object {oid}: chunk {index} not in table")
        page_id, slot = location
        frame = self.pool.fetch(page_id)
        try:
            return frame.page.read(slot)[1]
        finally:
            self.pool.unpin(page_id)

    def frame_for(self, oid):
        """Pin ``oid``'s anchor page: the one place an operation pins.

        The caller owns the pin (and typically the frame latch), hands
        the :class:`Pinned` to :meth:`read` / :meth:`write` /
        :meth:`delete`, and unpins via the pool — ``dirty=True`` after a
        write or delete: that unpin is what marks the frame dirty and
        stamps its ``page_lsn`` (stamped once already, under the store's
        lock).  This is how the storage manager latches an
        object per the section 4.2 algorithms; for large objects the
        anchor (header) frame carries the latch for the whole object.
        The probe takes no lock: a stale answer is caught by the check
        every operation makes under it, and a miss is confirmed there (a
        relocation takes the key out and puts it back).
        """
        location = self._locations.get(oid)
        if location is None:
            with self._lock:
                location = self._locations.get(oid)
        if location is None or _is_chunk(oid):
            raise UnknownObjectError(oid)
        return Pinned(self.pool.fetch(location[0]), location[1])

    def _anchor(self, oid, pinned):
        """``pinned`` with its slot's bytes read, one copy per latch
        cycle — or, when it is no pin (undo, restart redo, the state
        readers) or one the object has left (relocated between the
        caller's pin and its latch), a pin the store takes itself.  One
        dict probe tells, and it is sound because every relocation
        happens under ``_lock``, which the caller of this holds: a pin
        taken here cannot go stale."""
        if pinned is None or (
            pinned.raw is None
            and self._locations.get(oid)
            != (pinned.frame.page.page_id, pinned.slot)
        ):
            pinned = self.frame_for(oid)
            pinned.owned = True
        if pinned.raw is None:
            pinned.raw = pinned.frame.page.read(pinned.slot)[1]
        return pinned

    def _release(self, pinned, dirty):
        """Done with the anchor page: a pin the store took itself goes
        back now, before any other page is touched — a frameless
        operation never holds two frames, so undo and redo run in a
        one-frame pool.  A caller's pin is the caller's to return, but a
        changed frame is stamped here, under ``_lock``: a :meth:`flush`
        between this and the caller's unpin writes the page as changed,
        so it must force the log past the record that explains it."""
        if pinned.owned:
            pinned.owned = False
            self.pool.unpin(pinned.frame.page.page_id, dirty=dirty)
        elif dirty and self.pool.wal is not None:
            pinned.frame.page_lsn = self.pool.wal.last_lsn

    def read(self, oid, pinned=None):
        """Return the current bytes of ``oid`` (reassembling chunks)."""
        with self._lock:
            pinned = self._anchor(oid, pinned)
            try:
                if pinned.raw.startswith(_TAG_INLINE):
                    return pinned.raw[1:]  # strip the tag
                count, total = self._parse_lob_header(pinned.raw)
            finally:
                self._release(pinned, dirty=False)
            value = b"".join(
                self._read_slot(oid, index) for index in range(count)
            )
            if len(value) != total:
                raise StorageError(
                    f"large object {oid!r}: expected {total} bytes,"
                    f" found {len(value)}"
                )
            return value

    def write(self, oid, value, pinned=None):
        """Replace the bytes of ``oid`` with ``value``.

        Handles every size transition (small->small in place, on the
        frame already held, when it fits; small<->large, large->large)
        by dropping and re-placing.
        """
        with self._lock:
            pinned = self._anchor(oid, pinned)
            try:
                if (
                    len(value) <= self._max_inline
                    and pinned.raw.startswith(_TAG_INLINE)
                ):
                    page = pinned.frame.page
                    try:
                        page.update(pinned.slot, _TAG_INLINE + value)
                        if len(value) + 1 != len(pinned.raw):
                            self._note(page)
                        return
                    except PageFullError:
                        pass  # fall through to relocate
                self._drop_value(oid, pinned)
            finally:
                self._release(pinned, dirty=True)
            self._store_value(int(oid), value)

    def delete(self, oid, pinned=None):
        """Remove ``oid`` (and any chunks) from the store."""
        with self._lock:
            pinned = self._anchor(oid, pinned)
            try:
                self._drop_value(oid, pinned)
            finally:
                self._release(pinned, dirty=True)

    def install(self, oid, image):
        """Bring ``oid`` to ``image`` — create, overwrite or (``None``)
        delete: how undo and redo apply a physical image."""
        if image is None:
            if self.exists(oid):
                self.delete(oid)
        elif self.exists(oid):
            self.write(oid, image)
        else:
            self.create(image, oid)

    def flush(self):
        """Write every dirty page back, none of them half changed: every
        change to a page is made under ``_lock``, and this holds it.  A
        page changed on a caller's pin not yet returned is stamped
        already (:meth:`_release`), so the pool forces its record first."""
        with self._lock:
            self.pool.flush_all()

    def object_ids(self):
        """All live object id values, ascending (chunks excluded)."""
        with self._lock:
            return sorted(
                value for value in self._locations if not _is_chunk(value)
            )

    def __len__(self):
        return sum(1 for value in self._locations if not _is_chunk(value))
