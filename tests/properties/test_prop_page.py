"""Property: a page's counters are what a walk of its directory says.

``Page`` keeps the bytes its tombstoned slots hold and their slot
numbers (a min-heap) as state that ``insert`` / ``update`` / ``delete``
/ ``compact`` keep up to date and ``from_bytes`` rebuilds, so ``fits``
and ``insert`` never walk the slot directory.  Hypothesis drives streams
of those operations — updates that grow and that shrink, round trips
through bytes — on a page small enough to fill, compact and refuse.
After every operation the counters equal the walks of
``tests/storage/scan_oracle.py``, ``fits`` answers what the summing
formula answered for every size and every reuse slot, ``insert`` took
the slot the walk names, and every live object reads back.
"""

import os

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.page import _SLOT, _TOMBSTONE, Page, PageFullError
from tests.storage.scan_oracle import first_tombstone_scan, reclaimable_scan

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


def summed_fits(page, data_len, reuse_slot=None):
    """``Page.fits`` as it was answered by summing the directory."""
    usable = page.free_space() + reclaimable_scan(page)
    if reuse_slot is None:
        return usable >= data_len + _SLOT.size
    offset, old_len, __ = page._slots[reuse_slot]
    if offset != _TOMBSTONE:
        usable += old_len
    return usable >= data_len


def assert_counts_are_the_walks(page, model):
    assert page.reclaimable_space() == reclaimable_scan(page)
    first = page._tombstones[0] if page._tombstones else None
    assert first == first_tombstone_scan(page)
    assert page.live_count == len(model)
    edge = page.free_space() + reclaimable_scan(page) - _SLOT.size
    for size in {0, 1, 40, 200, edge - 1, edge, edge + 1, edge + _SLOT.size}:
        if size < 0:
            continue
        assert page.fits(size) == summed_fits(page, size)
        for slot in range(page.slot_count):
            assert page.fits(size, slot) == summed_fits(page, size, slot)
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
            try:
                slot = page.insert(stamp, data)
            except PageFullError:
                assert not summed_fits(page, len(data), reuse)
            else:
                assert slot == (page.slot_count - 1 if reuse is None else reuse)
                model[slot] = (stamp, data)
        elif kind in ("update", "delete") and model:
            slot = sorted(model)[args[0] % len(model)]
            if kind == "delete":
                page.delete(slot)
                del model[slot]
            else:
                data = bytes([stamp % 251]) * args[1]
                try:
                    page.update(slot, data)
                except PageFullError:
                    assert not summed_fits(page, len(data), slot)
                else:
                    model[slot] = (model[slot][0], data)
        elif kind == "compact":
            page.compact()
        elif kind == "round_trip":
            page = Page.from_bytes(page.to_bytes(), page_size=PAGE_SIZE)
        assert_counts_are_the_walks(page, model)
