"""One rule at every site that changes a page: append, then install.

A frame's ``page_lsn`` is the log's last LSN when the frame was dirtied,
and a write-back forces the log only that far.  That is sound iff *the
record that describes a modification is appended before the page is
modified* — the :class:`UpdateRecord` that can undo a forward update,
the :class:`CompensationRecord` that can repeat an undo.  Until PR 21
there were three orders (log–install–log forward, install–then–log in
undo, and a paragraph here on why the odd one was covered); there is
one now, and these tests hold each site to it by reading the order of
``injector.trace``: the two ``create`` paths, ``write_object`` (also
when its install dies half-way), and undo — live and at restart.  The
create tests run on a one-frame pool, so any second page touched evicts
the first; the write and undo tests have one spare frame
(``write_object`` keeps the object's anchor page pinned while it
relocates a large value).
"""

import pytest

from repro.chaos.faults import (
    LOG_APPEND,
    LOG_FLUSH,
    PAGE_WRITE,
    CrashPoint,
    FaultInjector,
    FaultPlan,
)
from repro.chaos.stack import read_state
from repro.common.errors import TransientIOError
from repro.common.ids import Tid
from repro.storage.disk import InMemoryDiskManager
from repro.storage.log import (
    CompensationRecord,
    MemoryLogDevice,
    UpdateRecord,
    WriteAheadLog,
)
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
    # One shard, built by shard count: every object shares the one
    # small pool.
    return StorageManager(
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

    def test_large_create_cut_at_each_of_its_page_writes(self, build):
        """A three-page object through one frame: its first pages reach
        disk *inside* ``create``.  Its one record precedes them all, and
        is durable when the first of *its* pages goes out (the page
        before that flush is the committed anchor's, evicted to make
        room): cut the power at any of those page writes and recovery
        leaves the object absent."""
        made = {}

        def drive(storage):
            made["anchor"] = storage.create_object(SETUP, _fat(b"s0"))
            storage.log_commit(SETUP)
            made["first_step"] = storage.injector.step_count + 1
            made["oid"] = storage.create_object(WRITER, _large(b"L1"))

        __, probe = _run(build, drive)
        steps = [s for s in probe.trace if s.number >= made["first_step"]]
        (update,) = [s.number for s in steps if s.kind == LOG_APPEND]
        writes = [s.number for s in steps if s.kind == PAGE_WRITE]
        (flush,) = [s.number for s in steps if s.kind == LOG_FLUSH]
        assert update < min(writes), "a page went out ahead of its log"
        created = [write for write in writes if write > flush]
        assert len(created) >= 2, "no created page was evicted inside create"

        for write in writes:
            storage, injector = _run(build, drive, FaultPlan(crash_at=write))
            assert injector.fired.number == write
            durable = storage.log.records(durable_only=True)
            assert (write in created) == any(
                isinstance(r, UpdateRecord) and r.tid == WRITER
                and r.before is None
                for r in durable
            ), "the creation's record was not forced ahead of its pages"
            report = _power_cut(storage, injector)
            assert (WRITER in report.losers) == (write in created)
            assert set(read_state(storage)) == {made["anchor"].value}


def _setup(storage, made):
    made["big"] = storage.create_object(SETUP, _large(b"B0"))
    made["small"] = storage.create_object(SETUP, _fat(b"s0"))
    storage.log_commit(SETUP)


def _expect_restored(storage, made):
    state = read_state(storage)
    assert state[made["big"].value] == _large(b"B0")
    assert state[made["small"].value] == _fat(b"s0")


@ENGINES
class TestWriteLogsBeforeItInstalls:
    def _drive(self, made):
        def drive(storage):
            _setup(storage, made)
            storage.write_object(WRITER, made["small"], _fat(b"s2"))
            made["write_from"] = storage.injector.step_count + 1
            storage.write_object(WRITER, made["big"], _large(b"B2"))

        return drive

    def _write_steps(self, build, made):
        """The large write's numbered steps, its one append, and the
        first flush after it: the gate's, inside the install."""
        __, probe = _run(build, self._drive(made), capacity=2)
        steps = [s for s in probe.trace if s.number >= made["write_from"]]
        (update,) = [s.number for s in steps if s.kind == LOG_APPEND]
        flush = min(
            s.number for s in steps
            if s.kind == LOG_FLUSH and s.number > update
        )
        return steps, update, flush

    def test_the_record_is_durable_before_any_page_it_describes(self, build):
        """The rewrite spans more pages than the pool has frames, so
        its pages go out inside ``write_object``: every one of them
        behind the update record, and behind the flush that made it
        durable."""
        steps, update, flush = self._write_steps(build, made := {})
        after = [
            s.number for s in steps
            if s.kind == PAGE_WRITE and s.number > update
        ]
        assert after and update < flush < min(after)
        for write in after:
            storage, injector = _run(
                build, self._drive(made), FaultPlan(crash_at=write), capacity=2
            )
            assert injector.fired.number == write
            report = _power_cut(storage, injector)
            assert WRITER in report.losers
            _expect_restored(storage, made)

    @pytest.mark.parametrize("ending", ["abort", "power cut"])
    def test_an_install_that_dies_mid_relocation(self, build, ending):
        """The eviction inside the relocation has to force the log, and
        the device fails that flush: ``write_object`` raises with the
        old value dropped and the new one half placed.  The record was
        appended first, so it stands — an abort restores from it; a
        power cut instead loses it *and* every page it was gating, and
        restart finds the before image where it was."""
        __, __, flush = self._write_steps(build, made := {})
        injector = FaultInjector(plan=FaultPlan(fail_flush_at={flush}))
        storage = build(injector, 2)
        with pytest.raises(TransientIOError):
            self._drive(made)(storage)
        assert injector.failed_flushes == 1
        assert injector.trace[-1].number == flush  # nothing went out after
        last = storage.log.records()[-1]
        assert isinstance(last, UpdateRecord) and last.oid == made["big"]
        assert (last.before, last.after) == (_large(b"B0"), _large(b"B2"))
        if ending == "abort":
            assert storage.undo(WRITER) == 2
            storage.log_abort(WRITER)
            _expect_restored(storage, made)
        report = _power_cut(storage, injector)
        assert (WRITER in report.losers) == (ending == "power cut")
        _expect_restored(storage, made)


@ENGINES
class TestUndoLogsBeforeItInstalls:
    """``undo`` appends the compensation record and only then installs
    the before image.  The frame is stamped at the install, at or past
    that record, so a page holding a restored image reaches disk only
    behind it — which is what lets restart trust the checkpoint's mark
    even for a transaction it keeps in doubt."""

    def _drive(self, made):
        def drive(storage):
            _setup(storage, made)
            storage.write_object(WRITER, made["big"], _large(b"B2"))
            storage.write_object(WRITER, made["small"], _fat(b"s2"))
            made["undo_from"] = storage.injector.step_count + 1
            storage.undo(WRITER)  # no abort record, no flush

        return drive

    def test_each_record_is_durable_before_the_pages_its_install_evicts(
        self, build
    ):
        made = {}
        __, probe = _run(build, self._drive(made), capacity=2)
        undo_steps = [s for s in probe.trace if s.number >= made["undo_from"]]
        appends = [s.number for s in undo_steps if s.kind == LOG_APPEND]
        assert len(appends) == 2  # one compensation record per update
        # Newest first: the small object, then the large one, whose
        # installed pages go out inside the install — behind the record
        # and the flush the gate forced for it.
        flushes = [s.number for s in undo_steps if s.kind == LOG_FLUSH]
        writes = [s.number for s in undo_steps if s.kind == PAGE_WRITE]
        assert writes and flushes
        assert appends[1] < min(flushes) < min(writes)
        for step in [s.number for s in undo_steps]:
            storage, injector = _run(
                build, self._drive(made), FaultPlan(crash_at=step), capacity=2
            )
            assert injector.fired.number == step
            durable = storage.log.records(durable_only=True)
            if step in writes:
                assert sum(
                    isinstance(r, CompensationRecord) for r in durable
                ) == 2
            report = _power_cut(storage, injector)
            assert WRITER in report.losers
            _expect_restored(storage, made)

    def test_power_cut_after_an_unflushed_undo(self, build):
        made = {}
        storage, injector = _run(build, self._drive(made), capacity=2)
        _power_cut(storage, injector)
        _expect_restored(storage, made)


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


def test_a_checkpoint_from_another_thread_never_marks_between_record_and_install():
    """Real threads.  Record and install are two steps of one object
    operation, made under the manager mutex; a checkpoint reads its
    marks holding that mutex, so no record at or below a mark is then
    waiting for its install, and writes each store's pages whole under
    the store's lock, so the mark can never cover a record whose
    install the flush missed.  2,000 writes on four worker threads with
    a second thread checkpointing as fast as it can, the switch
    interval cut down to make the interleavings dense; then the power
    goes, and restart — redoing only above the last mark — must land on
    the log-implied state."""
    import sys
    import threading

    from repro.chaos.oracles import expected_state
    from repro.common.codec import encode_int
    from repro.core.sharded import ShardedTransactionManager
    from repro.runtime.threaded import ThreadedRuntime

    rt = ThreadedRuntime(
        ShardedTransactionManager(n_shards=4), poll_timeout=0.01
    )
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    done = threading.Event()
    checkpoints = []

    def checkpointer():
        while not done.is_set():
            checkpoints.append(rt.manager.checkpoint().lsn.value)

    try:
        def setup(tx):
            oids = []
            for index in range(40):
                oids.append((yield tx.create(encode_int(0), name=f"o{index}")))
            return oids

        oids = rt.run(setup).value

        def writer(tx, oid, base):
            for step in range(10):
                yield tx.write(oid, encode_int(base + step))

        thread = threading.Thread(target=checkpointer, daemon=True)
        thread.start()
        tids = [
            rt.spawn(writer, args=(oids[n % 40], 100 * n), key=f"k{n}")
            for n in range(200)
        ]
        assert all(rt.commit_all(tids).values())
        done.set()
        thread.join(timeout=10.0)
        assert not thread.is_alive() and len(checkpoints) >= 2
    finally:
        done.set()
        sys.setswitchinterval(interval)
        rt.close()
    storage = rt.manager.storage
    storage.crash()
    history = storage.log.records()
    report = storage.recover()
    assert report.redo_from > 0 and not report.losers
    assert read_state(storage) == expected_state(history)


def test_an_object_operation_from_another_thread_runs_while_a_checkpoint_flushes():
    """Real threads, one manager over two shards.  A checkpoint holds
    the manager mutex only to read the active set and its marks: parked
    inside shard 0's pool flush, it lets a write to shard 1 run to its
    end; the write, made after the marks were read, is redone at
    restart."""
    import threading

    from repro.common.codec import encode_int
    from repro.core.manager import TransactionManager
    from repro.core.outcomes import GRANTED, CommitStatus

    manager = TransactionManager(storage=StorageManager(n_shards=2))
    storage = manager.storage
    setup = manager.initiate()
    manager.begin(setup)
    made = [manager.create_object(setup, encode_int(n)) for n in range(2)]
    manager.note_completed(setup)
    manager.try_commit(setup)
    on_one = next(oid for oid in made if storage.router.shard_of(oid) == 1)

    parked, release = threading.Event(), threading.Event()
    pool = storage.shards[0].pool
    flush_all = pool.flush_all

    def parking_flush():
        parked.set()
        release.wait(timeout=30.0)
        flush_all()

    pool.flush_all = parking_flush
    markers = []
    checkpointer = threading.Thread(
        target=lambda: markers.append(manager.checkpoint()), daemon=True
    )
    writer = manager.initiate()
    manager.begin(writer)
    outcomes = []
    operation = threading.Thread(
        target=lambda: outcomes.append(
            manager.try_write(writer, on_one, encode_int(7))
        ),
        daemon=True,
    )
    try:
        checkpointer.start()
        assert parked.wait(timeout=10.0)
        operation.start()
        operation.join(timeout=10.0)
        assert outcomes == [GRANTED]
    finally:
        release.set()
        checkpointer.join(timeout=10.0)
        operation.join(timeout=10.0)
    assert not checkpointer.is_alive() and len(markers) == 1
    manager.note_completed(writer)
    assert manager.try_commit(writer).status is CommitStatus.COMMITTED
    storage.crash()
    storage.recover()
    expected = {oid.value: encode_int(n) for n, oid in enumerate(made)}
    expected[on_one.value] = encode_int(7)
    assert read_state(storage) == expected


def test_a_checkpoint_from_another_thread_reads_no_mark_over_a_write_in_flight():
    """The stress test above, made deterministic.  While a checkpoint
    reads its marks, a write on another thread is started and, once its
    record is appended, parked before its install.  The checkpoint
    reads its marks holding the manager mutex, so that write cannot
    have begun: its record lands above the mark, and restart redoes it.
    Read with the mutex released, the mark would cover the record, the
    flush would miss the install, and restart would lose the write."""
    import threading

    from repro.common.codec import encode_int
    from repro.core.manager import TransactionManager
    from repro.core.outcomes import CommitStatus

    manager = TransactionManager()
    storage = manager.storage
    setup = manager.initiate()
    manager.begin(setup)
    oid = manager.create_object(setup, encode_int(0))
    manager.note_completed(setup)
    manager.try_commit(setup)

    writer_tid = manager.initiate()
    manager.begin(writer_tid)
    logged, release = threading.Event(), threading.Event()
    install, log_marks = storage.objects.write, storage.log_marks

    def parked_install(*args):
        logged.set()  # the record is appended; the install waits
        release.wait(timeout=10.0)
        return install(*args)

    writer = threading.Thread(
        target=lambda: manager.try_write(writer_tid, oid, encode_int(7)),
        daemon=True,
    )

    def marks_with_a_write_started():
        writer.start()
        logged.wait(timeout=0.5)  # it cannot get this far under the mutex
        return log_marks()

    storage.objects.write = parked_install
    storage.log_marks = marks_with_a_write_started
    checkpointer = threading.Thread(target=manager.checkpoint, daemon=True)
    try:
        checkpointer.start()
        checkpointer.join(timeout=10.0)
    finally:
        release.set()
        writer.join(timeout=10.0)
    assert not checkpointer.is_alive() and not writer.is_alive()
    manager.note_completed(writer_tid)
    assert manager.try_commit(writer_tid).status is CommitStatus.COMMITTED
    storage.crash()
    storage.recover()
    assert read_state(storage) == {oid.value: encode_int(7)}


def test_a_checkpoint_flush_between_install_and_unpin_forces_the_record():
    """Real threads, one shard.  A write appends its record, installs,
    and only then unpins; a checkpoint flushes without the manager
    mutex, so its flush can fall between the install and the unpin.
    The frame is dirty already (the setup's create), with a stamp the
    log is durable past: were the stamp set only at the unpin, the
    flush would force nothing and write the loser's after image with
    its record still volatile, and a power cut before the checkpoint's
    marker would leave that image on disk with nothing to undo it."""
    import threading

    from repro.common.codec import encode_int
    from repro.core.manager import TransactionManager

    class PowerCut(Exception):
        pass

    manager = TransactionManager()
    storage = manager.storage
    setup = manager.initiate()
    manager.begin(setup)
    oid = manager.create_object(setup, encode_int(0))
    manager.note_completed(setup)
    manager.try_commit(setup)
    frame = storage.objects.frame_for(oid).frame
    storage.pool.unpin(frame.page.page_id)
    assert frame.dirty and frame.page_lsn <= storage.log.durable_lsn

    installed, release, flushing = (threading.Event() for __ in range(3))
    unpin, flush = storage.pool.unpin, storage.objects.flush
    writer_tid = manager.initiate()
    manager.begin(writer_tid)

    def parked_unpin(page_id, dirty=False):
        if dirty and threading.current_thread() is writer:
            installed.set()  # record appended, page changed; unpin waits
            release.wait(timeout=10.0)
        return unpin(page_id, dirty=dirty)

    def flush_after_the_install():
        flushing.set()
        installed.wait(timeout=10.0)
        return flush()

    def cut(*args, **kwargs):
        raise PowerCut  # the power goes before the marker is written

    writer = threading.Thread(
        target=lambda: manager.try_write(writer_tid, oid, encode_int(7)),
        daemon=True,
    )
    cuts = []

    def checkpoint():
        try:
            manager.checkpoint()
        except PowerCut:
            cuts.append(True)

    storage.pool.unpin = parked_unpin
    storage.objects.flush = flush_after_the_install
    storage.log.log_checkpoint = cut
    checkpointer = threading.Thread(target=checkpoint, daemon=True)
    try:
        checkpointer.start()
        assert flushing.wait(timeout=10.0)  # past the marks and the mutex
        writer.start()
        checkpointer.join(timeout=10.0)
    finally:
        release.set()
        writer.join(timeout=10.0)
        checkpointer.join(timeout=10.0)
    assert not checkpointer.is_alive() and not writer.is_alive()
    assert cuts == [True]
    storage.crash()
    report = storage.recover()
    assert writer_tid in report.losers
    assert read_state(storage) == {oid.value: encode_int(0)}
