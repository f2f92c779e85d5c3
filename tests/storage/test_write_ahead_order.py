"""The invariant the page stamp rests on, site by site.

A frame's ``page_lsn`` is the log's last LSN when the frame was dirtied,
and a write-back forces the log only that far.  That is sound iff *the
record that can undo a modification is appended before the page is
modified*.  ``write_object``/``delete_object`` always did that; these
tests pin the three sites that did not: the two ``create`` paths (now
log-then-write) and the undo path (still install-then-log, and why that
is covered).  The create tests run on a one-frame pool, so any second
page touched evicts the first; the undo tests need a second frame
(``write_object`` keeps the object's anchor page pinned while it
relocates a large value).
"""

import pytest

from repro.chaos.faults import (
    LOG_APPEND,
    PAGE_WRITE,
    CrashPoint,
    FaultInjector,
    FaultPlan,
)
from repro.chaos.stack import read_state
from repro.common.ids import Tid
from repro.storage.disk import InMemoryDiskManager
from repro.storage.log import (
    AfterImageRecord,
    BeforeImageRecord,
    MemoryLogDevice,
    WriteAheadLog,
)
from repro.storage.segmented import ShardedStorageManager
from repro.storage.store import StorageManager

SETUP, WRITER = Tid(1), Tid(2)


def _flat(injector, capacity):
    return StorageManager(
        disk=InMemoryDiskManager(injector=injector),
        log=WriteAheadLog(MemoryLogDevice(injector=injector)),
        injector=injector,
        capacity=capacity,
    )


def _sharded(injector, capacity):
    # One shard: every object shares the one small pool, and creation
    # still goes through ``create_allocated``.
    return ShardedStorageManager(
        n_shards=1, injector=injector, capacity=capacity
    )


ENGINES = pytest.mark.parametrize("build", [_flat, _sharded])


def _fat(tag):
    return tag * 1100  # more than half a page: one object per page


def _large(tag):
    return tag * 4500  # three chunk pages and a header


def _power_cut(storage, injector):
    injector.disarm()
    storage.crash()
    return storage.recover()


def _run(build, drive, plan=None, capacity=1):
    """Drive a fresh stack under ``plan``; the planned crash ends it."""
    injector = FaultInjector(plan=plan or FaultPlan())
    storage = build(injector, capacity)
    try:
        drive(storage)
    except CrashPoint:
        pass
    return storage, injector


@ENGINES
class TestCreateLogsBeforeItWrites:
    def test_stolen_created_page_is_undone_after_a_crash(self, build):
        """The created object's page is evicted by the creator's next
        read, the creator never commits, the power fails: the durable
        log must be able to take the object away again."""
        made = {}

        def drive(storage):
            made["anchor"] = storage.create_object(SETUP, _fat(b"s0"))
            storage.log_commit(SETUP)  # everything so far is durable
            made["oid"] = storage.create_object(WRITER, _fat(b"w1"))
            storage.read_object(WRITER, made["anchor"])  # steals the page

        storage, injector = _run(build, drive)
        assert injector.steps_of_kind(PAGE_WRITE), "nothing was stolen"
        report = _power_cut(storage, injector)
        assert WRITER in report.losers
        assert made["oid"].value not in read_state(storage)
        assert made["anchor"].value in read_state(storage)

    def test_large_create_cut_before_its_after_image(self, build):
        """A three-page object through one frame: its first pages reach
        disk *inside* ``create``.  Cut the power right before the after
        image is appended — the ``None`` before image was already
        durable when the first page went out, and recovery leaves the
        object absent."""
        made = {}

        def drive(storage):
            made["anchor"] = storage.create_object(SETUP, _fat(b"s0"))
            storage.log_commit(SETUP)
            made["first_step"] = storage.injector.step_count + 1
            made["oid"] = storage.create_object(WRITER, _large(b"L1"))

        __, probe = _run(build, drive)
        steps = [s for s in probe.trace if s.number >= made["first_step"]]
        appends = [s.number for s in steps if s.kind == LOG_APPEND]
        writes = [s.number for s in steps if s.kind == PAGE_WRITE]
        before_image, after_image = appends
        assert before_image < min(writes), "a page went out ahead of its log"
        assert [w for w in writes if w < after_image], (
            "no created page was evicted before the after image"
        )

        storage, injector = _run(build, drive, FaultPlan(crash_at=after_image))
        assert injector.fired.number == after_image
        durable = storage.log.records(durable_only=True)
        assert any(
            isinstance(r, BeforeImageRecord) and r.tid == WRITER
            and r.image is None
            for r in durable
        ), "the creation's undo record was not forced ahead of its pages"
        assert not any(
            isinstance(r, AfterImageRecord) and r.tid == WRITER
            for r in durable
        )
        report = _power_cut(storage, injector)
        assert WRITER in report.losers
        assert set(read_state(storage)) == {made["anchor"].value}


@ENGINES
class TestUndoInstallsBeforeItLogs:
    """``undo`` installs a before image and only then logs the
    compensation record.  The frame is stamped at the install with the
    log's last LSN *then* — and everything the page can hold at that
    moment (the restored image, other transactions' uncommitted values)
    has its before image at or below that stamp, so forcing the log that
    far is all the write-ahead rule needs; the compensation record
    itself is redo-only, and losing it just makes recovery undo again.
    """

    def _setup(self, storage, made):
        made["big"] = storage.create_object(SETUP, _large(b"B0"))
        made["small"] = storage.create_object(SETUP, _fat(b"s0"))
        storage.log_commit(SETUP)
        storage.write_object(WRITER, made["big"], _large(b"B2"))
        storage.write_object(WRITER, made["small"], _fat(b"s2"))
        made["undo_from"] = storage.injector.step_count + 1

    def _expect_restored(self, storage, made):
        state = read_state(storage)
        assert state[made["big"].value] == _large(b"B0")
        assert state[made["small"].value] == _fat(b"s0")

    def test_crash_between_install_and_compensation_record(self, build):
        made = {}

        def drive(storage):
            self._setup(storage, made)
            storage.undo(WRITER)

        __, probe = _run(build, drive, capacity=2)
        undo_steps = [s for s in probe.trace if s.number >= made["undo_from"]]
        appends = [s.number for s in undo_steps if s.kind == LOG_APPEND]
        assert len(appends) == 2  # one compensation record per update
        # Newest first: the small object, then the large one — whose
        # installed pages go out before its compensation record exists.
        assert any(
            s.kind == PAGE_WRITE and appends[0] < s.number < appends[1]
            for s in undo_steps
        )
        for compensation in appends:
            storage, injector = _run(
                build, drive, FaultPlan(crash_at=compensation), capacity=2
            )
            assert injector.fired.number == compensation
            report = _power_cut(storage, injector)
            assert WRITER in report.losers
            self._expect_restored(storage, made)

    def test_power_cut_after_an_unflushed_undo(self, build):
        made = {}

        def drive(storage):
            self._setup(storage, made)
            storage.undo(WRITER)  # no abort record, no flush: all volatile

        storage, injector = _run(build, drive, capacity=2)
        _power_cut(storage, injector)
        self._expect_restored(storage, made)


def test_recovery_undo_gates_like_any_other_install():
    """Restart redo installs only what it read from the durable log, so
    it forces nothing; the undo pass appends compensation records, and a
    page it dirtied is stamped past the watermark again."""
    made = {}

    def drive(storage):
        made["big"] = storage.create_object(SETUP, _large(b"B0"))
        made["small"] = storage.create_object(SETUP, _fat(b"s0"))
        storage.log_commit(SETUP)
        storage.write_object(WRITER, made["big"], _large(b"B2"))
        storage.write_object(WRITER, made["small"], _fat(b"s2"))
        storage.sync_log()  # the loser's images are durable: redo has work

    storage, injector = _run(_flat, drive, capacity=2)
    injector.disarm()
    storage.crash()
    forced = []
    original = storage.log.force

    def counting(lsn):
        did = original(lsn)
        forced.append((lsn, did, storage.log.last_lsn))
        return did

    storage.log.force = counting
    durable_end = storage.log.last_lsn
    report = storage.recover()
    assert report.redone and report.undone == 2
    redo_checks = [f for f in forced if f[2] == durable_end]
    undo_checks = [f for f in forced if f[2] > durable_end]
    assert redo_checks and not any(did for __, did, __ in redo_checks)
    assert any(did for __, did, __ in undo_checks)
    assert read_state(storage) == {
        made["big"].value: _large(b"B0"),
        made["small"].value: _fat(b"s0"),
    }
