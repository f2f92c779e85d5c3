"""Property: no pin, and no latch, outlives the operation that took it.

An operation pins its object's page once and works on that frame; a
frameless one (``install``: undo and restart redo) pins for itself and
lets go before it touches another page.  Hypothesis drives op streams —
``create`` / ``read`` / ``write`` / ``delete`` / ``install`` over sizes
that cross inline <-> large object both ways and overflow shared pages
(relocation), unknown and deleted oids included — on a 3-frame and a
64-frame pool, under a plan that fails log flushes (inside evictions:
the write-ahead force) and cuts the power at one step (inside
``log_update``, a page write, a flush...).  After **every** call,
raised or returned, every ``Frame.pin_count`` is 0 and no frame latch
is held.

And the case the re-check under the latch exists for: a pin that went
stale because the object was relocated after it was taken.
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos.faults import CrashPoint, FaultInjector, FaultPlan
from repro.common.errors import (
    StorageError,
    TransientIOError,
    UnknownObjectError,
)
from repro.common.ids import ObjectId, Tid
from repro.storage.store import StorageManager

MAX_EXAMPLES = 1500 if os.environ.get("CHAOS_BUDGET") == "long" else 150

# Several to a page, most of a page, and past a page (large objects).
SIZES = (4, 600, 1500, 2200, 3900, 4500, 9000)
value = st.tuples(st.integers(0, 9), st.sampled_from(SIZES)).map(
    lambda pair: (b"%d" % pair[0]) * pair[1]
)
pick = st.integers(0, 11)  # which oid ever made (live, deleted, unknown)

step = st.one_of(
    st.tuples(st.just("create"), value),
    st.tuples(st.just("read"), pick),
    st.tuples(st.just("write"), pick, value),
    st.tuples(st.just("write"), pick, value),
    st.tuples(st.just("delete"), pick),
    st.tuples(st.just("install"), pick, st.one_of(st.none(), value)),
    st.tuples(st.just("commit")),
)
# Step numbers count from the end of the set-up, so they land in the ops.
faults = st.tuples(
    st.frozensets(st.integers(1, 80), max_size=40),  # flushes that fail
    st.one_of(st.none(), st.integers(1, 80)),  # the step the power is cut
)


def assert_nothing_held(storage, after):
    for page_id, frame in storage.pool._frames.items():
        assert frame.pin_count == 0, f"page {page_id} pinned after {after}"
        latch = frame.latch
        assert latch._s_count == 0 and not latch._x_held, (
            f"page {page_id} latched after {after}"
        )


def populated(frames, fail_flushes, crash):
    """A store holding one object of each size, its set-up committed,
    with the faults armed from here on."""
    injector = FaultInjector()
    storage = StorageManager(capacity=frames, injector=injector)
    made = [storage.create_object(Tid(1), b"s" * size) for size in SIZES]
    storage.log_commit(Tid(1))
    start = injector.step_count
    injector.plan = FaultPlan(
        fail_flush_at={start + number for number in fail_flushes},
        crash_at=None if crash is None else start + crash,
    )
    return storage, made, Tid(2)


def _apply(storage, made, tid, op):
    kind = op[0]
    if kind == "create":
        made.append(storage.create_object(tid, op[1]))
        return
    if kind == "commit":
        storage.log_commit(tid)
        return
    # Modulo one more than ever made: the last index is an unknown oid.
    index = op[1] % (len(made) + 1)
    oid = made[index] if index < len(made) else ObjectId(10_000)
    if kind == "read":
        storage.read_object(tid, oid)
    elif kind == "write":
        storage.write_object(tid, oid, op[2])
    elif kind == "delete":
        storage.delete_object(tid, oid)
    else:
        storage.objects.install(oid, op[2])


@pytest.mark.parametrize("frames", [3, 64])
@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(ops=st.lists(step, min_size=1, max_size=40), faults=faults)
def test_no_pin_or_latch_outlives_its_operation(frames, ops, faults):
    storage, made, tid = populated(frames, *faults)
    for op in ops:
        try:
            _apply(storage, made, tid, op)
        except (StorageError, UnknownObjectError):
            pass  # unknown / deleted oid, a failed force, a full pool
        except CrashPoint:
            assert_nothing_held(storage, op[0] + " (power cut)")
            storage.crash()
            storage.recover()
            made = [oid for oid in made if storage.objects.exists(oid)]
            tid = Tid(tid.value + 1)
        assert_nothing_held(storage, op[0])


def test_a_failed_force_inside_a_relocating_write_leaves_nothing_pinned():
    """The deterministic witness of the property's hardest arm: a write
    that grows past its page steals a dirty frame, the steal's log force
    fails, and the write raises from the middle of its re-placement."""

    def grow(plan):
        storage = StorageManager(capacity=3, injector=FaultInjector(plan))
        oids = [storage.create_object(Tid(1), b"v" * 1500) for __ in range(5)]
        first = storage.injector.step_count + 1
        return storage, first, lambda: storage.write_object(
            Tid(1), oids[0], b"w" * 9000
        )

    probe, first, write = grow(FaultPlan())
    write()
    forces = [
        step.number for step in probe.injector.trace
        if step.kind == "log_flush" and step.number >= first
    ]
    assert forces, "the growing write stole no dirty frame"
    storage, __, write = grow(FaultPlan(fail_flush_at=forces[:1]))
    with pytest.raises(TransientIOError):
        write()
    assert_nothing_held(storage, "the failed write")


class TestAStalePinIsCaughtUnderTheLatch:
    def _relocated_under_a_pin(self):
        """``a`` and ``b`` share page 1; ``a`` is pinned there, then
        grows past the page through another path and moves."""
        storage = StorageManager(capacity=8)
        a = storage.create_object(Tid(1), b"a" * 1500)
        b = storage.create_object(Tid(1), b"b" * 1500)
        objects = storage.objects
        stale = objects.frame_for(a)
        old_location = objects._locations[a.value]
        assert objects._locations[b.value][0] == old_location[0]
        objects.write(a, b"A" * 3900)  # does not fit beside b: relocates
        assert objects._locations[a.value][0] != old_location[0]
        # The freed slot is taken by a newcomer: the stale pin now names
        # *another object's* bytes.
        c = storage.create_object(Tid(1), b"c" * 1000)
        assert objects._locations[c.value] == old_location
        return storage, stale, (a, b, c)

    def test_read_through_a_stale_pin_returns_the_new_value(self):
        storage, stale, (a, __, ___) = self._relocated_under_a_pin()
        assert storage.objects.read(a, stale) == b"A" * 3900
        storage.pool.unpin(stale.frame.page.page_id)
        assert_nothing_held(storage, "the stale read")

    def test_write_through_a_stale_pin_lands_on_the_new_page(self):
        storage, stale, (a, b, c) = self._relocated_under_a_pin()
        objects = storage.objects
        new_page = objects._locations[a.value][0]
        objects.write(a, b"Z" * 3900, stale)
        assert objects._locations[a.value][0] == new_page
        assert objects.read(a) == b"Z" * 3900
        # Never in the stale frame's slot: its new tenant is untouched.
        assert objects.read(c) == b"c" * 1000
        assert objects.read(b) == b"b" * 1500
        storage.pool.unpin(stale.frame.page.page_id, dirty=True)
        assert_nothing_held(storage, "the stale write")

    def test_delete_through_a_stale_pin_deletes_the_object_not_the_tenant(self):
        storage, stale, (a, __, c) = self._relocated_under_a_pin()
        storage.objects.delete(a, stale)
        assert not storage.objects.exists(a)
        assert storage.objects.read(c) == b"c" * 1000
        storage.pool.unpin(stale.frame.page.page_id, dirty=True)
        assert_nothing_held(storage, "the stale delete")
