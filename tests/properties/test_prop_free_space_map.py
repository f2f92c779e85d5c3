"""Property: each shard's free-space map is what a walk of its pages says.

``ObjectStore._room`` maps every page of the shard's disk, cached or
not, in page-id order, to what the next insert could store there; the
table rebuild's scan builds it at open and every change to a page's
live bytes or directory keeps it current.  Hypothesis generates streams
of creates (inline and large), writes that grow, shrink and move an
object into or out of a chunk chain, deletes, aborts (undo installs
before images), checkpoints (sharp ones truncate the log), power cuts
with restart recovery, and a page torn on disk across a power cut (the
open quarantines it) — on one and two shards, over memory and file
devices, in a three-frame pool so pages come and go.  After every step
each map names every page of its disk in order, each entry equals
``scan_oracle.room_scan`` of that page's current image — the cached
frame's, or else the disk's, decoded whole — and the bound placement
reads is at least the largest entry.  After every restart no id is live
in two page directories.
"""

import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.ids import ObjectId, Tid
from repro.storage.disk import FileDiskManager
from repro.storage.log import FileLogDevice, WriteAheadLog
from repro.storage.store import StorageManager
from tests.chaos.mutations import free_map_skips_deletes
from tests.storage.scan_oracle import ids_live_twice, room_of_image, room_scan

MAX_EXAMPLES = 1000 if os.environ.get("CHAOS_BUDGET") == "long" else 150

size = st.one_of(
    st.integers(1, 300),  # several to a page
    st.integers(1500, 3000),  # one or two to a page
    st.integers(4100, 10000),  # a chunk chain
)
pick = st.integers(0, 63)
operation = st.one_of(
    st.tuples(st.just("create"), size),
    st.tuples(st.just("create"), size),
    st.tuples(st.just("write"), pick, size),
    st.tuples(st.just("write"), pick, size),
    st.tuples(st.just("delete"), pick),
    st.tuples(st.just("commit")),
    st.tuples(st.just("abort")),
    st.tuples(st.just("checkpoint"), st.booleans()),
    st.tuples(st.just("crash")),
    st.tuples(st.just("tear"), pick, pick),
)


def assert_map_is_the_walk(storage):
    for stack in storage.shards:
        objects, disk = stack.objects, stack.disk
        assert list(objects._room) == list(disk.page_ids())
        for page_id, room in objects._room.items():
            frame = stack.pool.frame_for(page_id)
            if frame is not None:
                walked = room_scan(frame.page)
            else:
                image = disk.read_page(page_id)
                walked = room_of_image(image, disk.page_size, page_id)
            assert room == walked, page_id
        assert objects._most >= max(objects._room.values(), default=0)


class _Stream:
    """One transaction at a time over a store; checks after each step."""

    def __init__(self, n_shards, directory=None):
        if directory is None:
            self.storage = StorageManager(n_shards=n_shards, capacity=3)
        else:
            shards = range(n_shards)
            self.storage = StorageManager(
                disk=[FileDiskManager(directory / f"pages{i}") for i in shards],
                log=[
                    WriteAheadLog(FileLogDevice(directory / f"wal{i}"))
                    for i in shards
                ],
                capacity=3,
            )
        self.tid = Tid(1)
        self.busy = False  # the running transaction has logged something

    def close(self):
        for stack in self.storage.shards:
            stack.log.device.close()
            stack.disk.close()

    def _oids(self):
        return sorted(
            value for stack in self.storage.shards
            for value in stack.objects.object_ids()
        )

    def _next(self):
        self.tid, self.busy = Tid(self.tid + 1), False

    def apply(self, op):
        kind, storage = op[0], self.storage
        oids = self._oids()
        if kind == "create":
            storage.create_object(self.tid, b"c" * op[1])
            self.busy = True
        elif kind in ("write", "delete") and oids:
            oid = ObjectId(oids[op[1] % len(oids)])
            if kind == "write":
                storage.write_object(self.tid, oid, b"w" * op[2])
            else:
                storage.delete_object(self.tid, oid)
            self.busy = True
        elif kind == "commit":
            storage.log_commit(self.tid)
            self._next()
        elif kind == "abort":
            storage.undo(self.tid)
            storage.log_abort(self.tid)
            self._next()
        elif kind == "checkpoint":
            active = (self.tid,) if self.busy else ()
            storage.checkpoint(active, truncate=op[1] and not active)
        elif kind == "crash":
            self._restart()
        elif kind == "tear":
            self._restart(tear=op[1:])
        assert_map_is_the_walk(storage)

    def _restart(self, tear=None):
        """A power cut and the restart after it; with ``tear``, one page
        of one shard is left torn on disk for the open to quarantine."""
        storage = self.storage
        storage.crash()
        if tear is not None:
            disk = storage.shards[tear[0] % len(storage.shards)].disk
            pages = list(disk.page_ids())
            if pages:
                page_id = pages[tear[1] % len(pages)]
                image = bytes(disk.read_page(page_id))
                disk.write_page(page_id, image[:8] + bytes(len(image) - 8))
        storage.recover()
        for stack in storage.shards:
            assert not ids_live_twice(stack)
        self._next()


def _run(stream, ops):
    for op in ops:
        stream.apply(op)


_SHARDS = st.sampled_from([1, 2])


# A chunk chain on a page torn after a truncating checkpoint: the page
# is rebuilt from the images the compacted log keeps, so a delete or a
# write of the object after it finds every chunk.
_TORN_AFTER_TRUNCATION = [
    [("create", 4100), ("commit",), ("checkpoint", True), ("tear", 0, 1),
     ("delete", 0)],
    [("create", 1)] * 5 + [("write", 57, 4100), ("create", 1), ("commit",),
     ("checkpoint", True), ("tear", 0, 1), ("write", 44, 1)],
    [("create", 1)] * 4 + [("create", 4100), ("create", 4100), ("commit",),
     ("checkpoint", True), ("tear", 0, 32)] + [("create", 1)] * 3
    + [("write", 59, 1)],
]


class TestTheMapIsTheWalk:
    @given(ops=st.lists(operation, max_size=30), n_shards=_SHARDS)
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @example(ops=_TORN_AFTER_TRUNCATION[0], n_shards=1)
    @example(ops=_TORN_AFTER_TRUNCATION[1], n_shards=1)
    @example(ops=_TORN_AFTER_TRUNCATION[2], n_shards=1)
    def test_in_memory(self, ops, n_shards):
        _run(_Stream(n_shards), ops)

    @given(ops=st.lists(operation, max_size=25), n_shards=_SHARDS)
    @settings(max_examples=MAX_EXAMPLES // 2, deadline=None)
    @example(ops=[("create", 4100), ("commit",), ("checkpoint", True),
                  ("tear", 0, 1), ("write", 0, 1)], n_shards=1)
    def test_on_files(self, ops, n_shards):
        with tempfile.TemporaryDirectory() as directory:
            stream = _Stream(n_shards, Path(directory))
            try:
                _run(stream, ops)
            finally:
                stream.close()


# Every kind of step once, on every page kind the map covers: a page
# filled, grown past, shrunk, emptied by a delete and an abort, flushed
# by a checkpoint, lost to a power cut, and torn across one.
_EVERY_STEP = [
    ("create", 200),
    ("create", 2500),
    ("create", 9000),
    ("write", 0, 3000),
    ("write", 1, 10),
    ("commit",),
    ("delete", 2),
    ("checkpoint", False),
    ("create", 100),
    ("abort",),
    ("write", 0, 5000),
    ("commit",),
    ("checkpoint", True),
    ("create", 2000),
    ("crash",),
    ("tear", 0, 0),
    ("create", 50),
    ("commit",),
]


@pytest.mark.parametrize("n_shards", [1, 2])
@pytest.mark.parametrize("on_files", [False, True])
def test_one_stream_takes_every_step(tmp_path, n_shards, on_files):
    stream = _Stream(n_shards, tmp_path if on_files else None)
    try:
        _run(stream, _EVERY_STEP)
        damaged = [s.objects.damaged_pages for s in stream.storage.shards]
        assert any(damaged)  # the tear was quarantined
    finally:
        stream.close()


@pytest.mark.parametrize("n_shards", [1, 2])
def test_a_map_that_skips_deletes_is_caught(n_shards):
    """The smallest stream that needs the delete's entry: an object
    created, committed and deleted."""
    stream = _Stream(n_shards)
    with free_map_skips_deletes(), pytest.raises(AssertionError):
        _run(stream, [("create", 300), ("commit",), ("delete", 0)])
