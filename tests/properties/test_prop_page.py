"""Property: a page's counters are what a walk of its directory says.

``Page`` keeps the bytes its live slots hold and its tombstones' slot
numbers (a min-heap) as state that ``insert`` / ``update`` / ``delete``
/ ``compact`` keep up to date and ``from_bytes`` rebuilds, so ``fits``
and ``insert`` never walk the slot directory.  Hypothesis drives streams
of those operations — updates that grow and that shrink, round trips
through bytes — on a page small enough to fill, compact and refuse.
After every operation the live-byte counter and the first tombstone
equal the walks of ``tests/storage/scan_oracle.py``, ``room`` is what
the walk says the next insert could store, ``live_slots`` reads the same
room and live slots off the page's image, ``fits`` answers the walk's
formula for every size and every live slot, ``insert`` took the slot the
walk names, and every live object reads back.  ``fits`` is exact: an
insert or a grown update is refused exactly when the walk, taken before
it, said it would not fit.
"""

import os

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.page import Page, PageFullError, live_slots
from tests.storage.scan_oracle import (
    first_tombstone_scan,
    live_bytes_scan,
    room_scan,
    unused_scan,
)

MAX_EXAMPLES = 1000 if os.environ.get("CHAOS_BUDGET") == "long" else 150
PAGE_SIZE = 512  # a dozen small objects fill it

length = st.integers(0, 160)
pick = st.integers(0, 63)  # which live slot, modulo how many there are
operation = st.one_of(
    st.tuples(st.just("insert"), length),
    st.tuples(st.just("insert"), length),
    st.tuples(st.just("update"), pick, length),
    st.tuples(st.just("update"), pick, length),
    st.tuples(st.just("delete"), pick),
    st.tuples(st.just("compact")),
    st.tuples(st.just("round_trip")),
)


def walked_fits(page, data_len, reuse_slot=None):
    """``Page.fits`` by a walk of the directory: as the next insert, or
    as the new value of the live slot ``reuse_slot``, whose bytes it
    gives up."""
    if reuse_slot is None:
        return data_len <= room_scan(page)
    return data_len <= unused_scan(page) + page._slots[reuse_slot][1]


def assert_counts_are_the_walks(page, model):
    assert page._live == live_bytes_scan(page)
    first = page._tombstones[0] if page._tombstones else None
    assert first == first_tombstone_scan(page)
    assert page.live_count == len(model)
    room = room_scan(page)
    assert page.room() == room
    assert live_slots(page.to_bytes(), PAGE_SIZE, 1) == (
        room, [(slot, model[slot][0]) for slot in sorted(model)]
    )
    for size in {0, 1, 40, 200, room - 1, room, room + 1, room + 12}:
        if size < 0:
            continue
        assert page.fits(size) == walked_fits(page, size)
        for slot in model:
            assert page.fits(size, slot) == walked_fits(page, size, slot)
    assert {slot: (oid, data) for slot, oid, data in page.items()} == model


@given(st.lists(operation, max_size=60))
@settings(max_examples=MAX_EXAMPLES, deadline=None)
def test_counters_equal_the_walks_after_every_operation(operations):
    page = Page(1, page_size=PAGE_SIZE)
    model = {}  # slot -> (oid, bytes)
    for stamp, (kind, *args) in enumerate(operations, start=1):
        if kind == "insert":
            data = bytes([stamp % 251]) * args[0]
            reuse = first_tombstone_scan(page)
            fits = walked_fits(page, len(data))
            try:
                slot = page.insert(stamp, data)
            except PageFullError:
                assert not fits
            else:
                assert fits
                assert slot == (page.slot_count - 1 if reuse is None else reuse)
                model[slot] = (stamp, data)
        elif kind in ("update", "delete") and model:
            slot = sorted(model)[args[0] % len(model)]
            if kind == "delete":
                page.delete(slot)
                del model[slot]
            else:
                data = bytes([stamp % 251]) * args[1]
                fits = walked_fits(page, len(data), slot)
                try:
                    page.update(slot, data)
                except PageFullError:
                    assert not fits
                else:
                    assert fits
                    model[slot] = (model[slot][0], data)
        elif kind == "compact":
            page.compact()
        elif kind == "round_trip":
            page = Page.from_bytes(page.to_bytes(), page_size=PAGE_SIZE)
        assert_counts_are_the_walks(page, model)
