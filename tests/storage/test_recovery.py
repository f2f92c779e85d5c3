"""Restart recovery: winners redone, losers undone, delegation honoured."""

import sys

import pytest

from repro.chaos.faults import FaultInjector, FaultPlan
from repro.chaos.oracles import expected_state
from repro.chaos.stack import read_state
from repro.common.ids import Lsn, ObjectId, Tid
from repro.storage.buffer import BufferPool
from repro.storage.disk import InMemoryDiskManager
from repro.storage.log import (
    CheckpointRecord,
    FileLogDevice,
    MemoryLogDevice,
    WriteAheadLog,
    decode_record,
    encode_record,
)
from repro.storage.objects import ObjectStore
from repro.storage.recovery import RecoveryManager
from repro.storage.store import StorageManager
from tests.chaos.mutations import (
    compensation_logged_after_install,
    open_vote_closed_by_anchor,
)
from tests.storage.scan_oracle import (
    analyze_scan,
    assert_analysis_matches,
    open_votes_scan,
)


def _create(store, value):
    """``value`` under the next id above every one ``store`` holds (an
    object store allocates none)."""
    return store.create(value, ObjectId(max(store.object_ids(), default=0) + 1))


@pytest.fixture
def setup():
    disk = InMemoryDiskManager()
    pool = BufferPool(disk, capacity=16)
    store = ObjectStore(pool)
    log = WriteAheadLog()
    return store, log


def write_logged(store, log, tid, oid, value):
    """A logged update as the storage manager performs it."""
    before = store.read(oid) if store.exists(oid) else None
    log.log_update(tid, oid, before, value)
    if store.exists(oid):
        store.write(oid, value)
    else:
        store.create(value, oid=oid)


class TestAnalysis:
    def test_winners_and_losers(self, setup):
        store, log = setup
        oid = _create(store, b"base")
        write_logged(store, log, Tid(1), oid, b"w1")
        log.log_commit(Tid(1))
        write_logged(store, log, Tid(2), oid, b"w2")
        log.flush()
        report = RecoveryManager(log, store).run()
        assert Tid(1) in report.winners
        assert Tid(2) in report.losers

    def test_finished_abort_not_a_loser(self, setup):
        store, log = setup
        oid = _create(store, b"base")
        write_logged(store, log, Tid(1), oid, b"w1")
        # The live abort logs its undo, undoes, and logs completion:
        log.log_compensation(Tid(1), oid, b"base")
        store.write(oid, b"base")
        log.log_abort(Tid(1))
        log.flush()
        report = RecoveryManager(log, store).run()
        assert Tid(1) in report.already_aborted
        assert Tid(1) not in report.losers
        assert store.read(oid) == b"base"


class TestRedoUndo:
    def test_committed_update_survives_cache_loss(self, setup):
        store, log = setup
        oid = _create(store, b"base")
        store.pool.flush_all()
        write_logged(store, log, Tid(1), oid, b"committed-value")
        log.log_commit(Tid(1))
        # Crash: lose the cache (dirty page never flushed).
        store.pool.drop_all()
        store._rebuild_table()
        assert store.read(oid) == b"base"  # stale on disk
        RecoveryManager(log, store).run()
        assert store.read(oid) == b"committed-value"

    def test_uncommitted_update_rolled_back(self, setup):
        store, log = setup
        oid = _create(store, b"base")
        write_logged(store, log, Tid(1), oid, b"dirty")
        log.flush()
        store.pool.flush_all()  # steal: dirty page reaches disk
        store.pool.drop_all()
        store._rebuild_table()
        assert store.read(oid) == b"dirty"
        RecoveryManager(log, store).run()
        assert store.read(oid) == b"base"

    def test_creation_by_loser_deleted(self, setup):
        store, log = setup
        oid = ObjectId(77)
        log.log_update(Tid(1), oid, None, b"new")
        store.create(b"new", oid=oid)
        log.flush()
        RecoveryManager(log, store).run()
        assert not store.exists(oid)

    def test_creation_by_winner_recreated(self, setup):
        store, log = setup
        oid = ObjectId(77)
        log.log_update(Tid(1), oid, None, b"new")
        log.log_commit(Tid(1))
        # The object never reached disk (cache lost before flush).
        RecoveryManager(log, store).run()
        assert store.read(oid) == b"new"

    def test_interleaved_winner_loser_same_object(self, setup):
        store, log = setup
        oid = _create(store, b"v0")
        write_logged(store, log, Tid(1), oid, b"v1")  # loser
        write_logged(store, log, Tid(2), oid, b"v2")  # winner (cooperative)
        log.log_commit(Tid(2))
        RecoveryManager(log, store).run()
        # Repeat history then undo the loser: its before image (v0) wins —
        # the paper's acknowledged cascading-loss semantics for
        # cooperating transactions.
        assert store.read(oid) == b"v0"

    def test_redo_installs_each_object_once_at_its_newest_image(self, setup):
        store, log = setup
        oid = _create(store, b"v0")
        other = _create(store, b"w0")
        store.pool.flush_all()
        installs = []
        install = store.install
        store.install = lambda *args: installs.append(args) or install(*args)
        for value in (b"v1", b"v2", b"v3"):
            write_logged(store, log, Tid(1), oid, value)
        write_logged(store, log, Tid(1), other, b"w1")
        log.log_commit(Tid(1))
        store.pool.drop_all()
        store._rebuild_table()
        report = RecoveryManager(log, store).run()
        assert installs == [(oid, b"v3"), (other, b"w1")]
        assert (report.redone, report.superseded) == (2, 2)
        # The operator's line says both, so "redone=2" is not read as
        # "the tail held two updates".
        assert "redone=2 (2 superseded), undone=0" in repr(report)
        assert (store.read(oid), store.read(other)) == (b"v3", b"w1")

    def test_recovery_is_idempotent(self, setup):
        store, log = setup
        oid = _create(store, b"base")
        write_logged(store, log, Tid(1), oid, b"w1")
        log.log_commit(Tid(1))
        write_logged(store, log, Tid(2), oid, b"w2")
        log.flush()
        RecoveryManager(log, store).run()
        first = store.read(oid)
        RecoveryManager(log, store).run()
        assert store.read(oid) == first
        # Second pass found no new losers.
        report = RecoveryManager(log, store).run()
        assert report.losers == set()


class TestDelegationAtRecovery:
    def test_delegated_to_winner_survives(self, setup):
        store, log = setup
        oid = _create(store, b"base")
        write_logged(store, log, Tid(1), oid, b"delegated-work")
        log.log_delegate(Tid(1), Tid(2), [oid])
        log.log_commit(Tid(2))
        log.flush()
        report = RecoveryManager(log, store).run()
        assert store.read(oid) == b"delegated-work"
        assert Tid(1) in report.losers  # the delegator itself never committed

    def test_delegated_to_loser_undone(self, setup):
        store, log = setup
        oid = _create(store, b"base")
        write_logged(store, log, Tid(1), oid, b"delegated-work")
        log.log_delegate(Tid(1), Tid(2), [oid])
        log.log_commit(Tid(1))  # the DELEGATOR commits...
        log.flush()
        RecoveryManager(log, store).run()
        # ... but responsibility had moved to Tid(2), which never did.
        assert store.read(oid) == b"base"


@pytest.mark.parametrize("size", [4, 9000], ids=["inline", "large"])
@pytest.mark.parametrize("n_shards", [None, 1, 2, 4])
def test_restart_never_reissues_an_oid_the_tail_names(n_shards, size):
    """Redo installs an object created and deleted above the mark once,
    as absent: it never passes through ``create``, and its id must stay
    retired all the same — a new object under a dead one's id would
    inherit whatever still names it.  Chunk ids (a large object's
    slots) name no object: the allocator resumes right above the
    highest real id, not above them."""
    if n_shards is None:
        storage = StorageManager()
    else:
        storage = StorageManager(n_shards=n_shards)
    kept = storage.create_object(Tid(1), b"a" * size)
    dead = storage.create_object(Tid(1), b"b" * size)
    storage.delete_object(Tid(1), dead)
    storage.log_commit(Tid(1))
    storage.crash()
    storage.recover()
    assert read_state(storage) == {kept.value: b"a" * size}
    fresh = storage.create_object(Tid(2), b"c" * size)
    assert fresh.value == dead.value + 1 == 3
    assert storage.read_object(Tid(2), fresh) == b"c" * size


def _storage(tmp_path, device, injector=None, capacity=16):
    """A storage manager over a memory or file log device."""
    if device == "file":
        log_device = FileLogDevice(tmp_path / "wal.log", injector=injector)
    else:
        log_device = MemoryLogDevice(injector=injector)
    return StorageManager(log=WriteAheadLog(log_device), capacity=capacity)


DEVICES = pytest.mark.parametrize("device", ["memory", "file"])


class TestRecoverWithoutACrash:
    """``recover()`` with the decoded cache ahead of the device: restart
    sees what is durable, so the volatile tail is dropped first and the
    analysis, the index and the device all describe one record set."""

    @DEVICES
    def test_the_volatile_tail_is_dropped_not_half_analysed(
        self, tmp_path, device
    ):
        storage = _storage(tmp_path, device)
        oid = storage.create_object(Tid(1), b"v0")
        storage.log_commit(Tid(1))
        storage.write_object(Tid(2), oid, b"durable loser")
        storage.sync_log()
        durable = storage.log.records()
        storage.write_object(Tid(3), oid, b"volatile")
        storage.log.log_abort(Tid(2))  # would hide the loser, if it counted
        assert len(storage.log) > storage.log.device.durable_count()

        storage.pool.drop_all()
        report = storage.recover()  # no crash() first

        assert report.scanned == len(durable)
        assert_analysis_matches(report, durable)
        assert report.losers == {Tid(2)}
        assert storage.read_object(Tid(0), oid) == b"v0"
        # One record set everywhere: the durable prefix, then recovery's
        # own compensation and abort records.
        assert storage.log.records()[: len(durable)] == durable
        assert storage.log.records() == storage.log.records(durable_only=True)
        assert storage.log.updates_by(Tid(3)) == []

    @DEVICES
    def test_nothing_is_resynced_when_the_cache_is_the_durable_view(
        self, tmp_path, device, monkeypatch
    ):
        storage = _storage(tmp_path, device)
        storage.create_object(Tid(1), b"v0")
        storage.log_commit(Tid(1))
        storage.crash()
        monkeypatch.setattr(
            storage.log, "resync", lambda: pytest.fail("decoded twice")
        )
        monkeypatch.setattr(
            storage.log, "records", lambda *a, **k: pytest.fail("rescanned")
        )
        assert storage.recover().winners == {Tid(1)}

    @DEVICES
    @pytest.mark.parametrize("crash_first", [False, True])
    def test_a_lied_checkpoint_is_not_a_redo_mark(
        self, tmp_path, device, crash_first
    ):
        """The second checkpoint's marker is appended but its flush is
        lied about: the marker is not durable, so redo falls back to the
        first checkpoint's mark — never to the lost one."""
        injector = FaultInjector()
        storage = _storage(tmp_path, device, injector=injector)
        oid = storage.create_object(Tid(1), b"v0")
        storage.log_commit(Tid(1))
        first = storage.checkpoint()
        storage.write_object(Tid(2), oid, b"v2")
        storage.log_commit(Tid(2))
        durable = storage.log.records()
        # Only the log device is numbered: the marker's append, then
        # its flush — the one lied about.
        injector.plan = FaultPlan(lose_fsync_at={injector.step_count + 2})
        second = storage.checkpoint()
        assert injector.lied_fsyncs == 1
        assert storage.log.redo_lsn == second.redo_lsn > first.redo_lsn
        # Nor a restart point: the hint still names the first marker.
        assert storage.log.device.hint[-2:] == (2, first.lsn.value)

        injector.disarm()
        if crash_first:
            storage.crash()
        else:
            storage.pool.drop_all()
        report = storage.recover()
        # Tail semantics: what restart decodes is the log from the
        # restart point on — the first marker and Tid(2)'s two records.
        assert report.restart_from == first.lsn.value
        assert report.scanned == len(durable) - 2 == 3
        assert report.redo_from == first.redo_lsn
        assert report.redone == 1  # Tid(2)'s update, above the mark
        assert storage.read_object(Tid(0), oid) == b"v2"

    def test_no_durable_checkpoint_means_the_whole_log(self, tmp_path):
        injector = FaultInjector()
        storage = _storage(tmp_path, "memory", injector=injector)
        oid = storage.create_object(Tid(1), b"v0")
        storage.log_commit(Tid(1))
        injector.plan = FaultPlan(lose_fsync_at={injector.step_count + 2})
        storage.checkpoint()
        injector.disarm()
        storage.crash()
        report = storage.recover()
        assert (report.redo_from, report.redone) == (0, 1)
        assert storage.read_object(Tid(0), oid) == b"v0"


class TestCheckpointRecordCompatibility:
    def test_a_marker_without_the_field_decodes_to_zero(self):
        new = CheckpointRecord(
            lsn=Lsn(7), tid=Tid(0), active=(Tid(3), Tid(4)), redo_lsn=6
        )
        raw = encode_record(new)
        assert decode_record(raw) == new
        old = raw[:-8]  # as written before the trailing field existed
        assert decode_record(old) == CheckpointRecord(
            lsn=Lsn(7), tid=Tid(0), active=(Tid(3), Tid(4)), redo_lsn=0
        )

    def test_recovery_redoes_from_the_start_behind_an_old_marker(self):
        """A log whose only checkpoint marker predates ``redo_lsn``."""
        device = MemoryLogDevice()
        log = WriteAheadLog(device)
        oid = ObjectId(5)
        log.log_update(Tid(1), oid, None, b"v1")
        log.log_commit(Tid(1))
        marker = CheckpointRecord(lsn=Lsn(3), tid=Tid(0), active=())
        device.append(encode_record(marker)[:-8])
        device.flush()
        log.log_update(Tid(2), oid, b"v1", b"v2")  # draws LSN 3 again: moot
        reopened = WriteAheadLog(device)
        assert reopened.redo_lsn == 0
        store = ObjectStore(BufferPool(InMemoryDiskManager(), capacity=16))
        report = RecoveryManager(reopened, store).run()
        assert (report.redo_from, report.redone) == (0, 1)
        assert store.read(oid) == b"v1"


class TestTornPageVoidsTheMark:
    def test_quarantine_logs_a_void_marker_before_resetting_the_page(self):
        """Objects last written below the mark live on a page torn after
        it: the quarantine voids the mark durably, so this restart and —
        the torn image now gone — the next both redo from every image in
        the log, while the restart point stays where it was."""
        storage = StorageManager(capacity=16)
        keep = storage.create_object(Tid(1), b"k" * 2200)  # its own page
        storage.log_commit(Tid(1))
        mark = storage.checkpoint().redo_lsn
        assert mark > 0
        page_id = storage.objects._locations[keep.value][0]
        image = storage.disk.read_page(page_id)
        storage.disk._pages[page_id] = image[:8] + bytes(len(image) - 8)
        storage.crash()
        report = storage.recover()
        assert storage.objects.damaged_pages == [page_id]
        assert report.redo_from == 0 and report.restart_from > mark
        assert storage.read_object(Tid(0), keep) == b"k" * 2200
        void = [
            r for r in storage.log.records(durable_only=True)
            if isinstance(r, CheckpointRecord)
        ][-1]
        assert void.redo_lsn == 0
        # Power cut again before any checkpoint flushed the rebuilt page.
        storage.crash()
        again = storage.recover()
        assert (again.redo_from, again.restart_from) == (0, report.restart_from)
        assert storage.read_object(Tid(0), keep) == b"k" * 2200
        # A real checkpoint re-establishes a mark.
        assert storage.checkpoint().redo_lsn > mark
        storage.crash()
        assert storage.recover().redone == 0
        assert storage.read_object(Tid(0), keep) == b"k" * 2200


class TestAnalysisIsLinear:
    def test_restart_visits_each_record_a_bounded_number_of_times(self):
        """2,000 updates and 200 delegations.  The scan analysis looped
        over every update seen so far for every delegate record (here
        ~200,000 update visits); decode + index + analysis now make a
        number of calls proportional to the log's length.  Calls are
        counted, not timed; the oracle's loop is measured in executed
        lines, since its id comparisons run in C and make no calls."""
        device = MemoryLogDevice()
        log = WriteAheadLog(device)
        for pair in range(200):
            source, heir = Tid(2 * pair + 1), Tid(2 * pair + 2)
            oids = [ObjectId(10 * pair + i + 1) for i in range(10)]
            for oid in oids:
                log.log_update(source, oid, b"b", b"a")
            log.log_delegate(source, heir, oids)
            if pair % 2:
                log.log_commit(heir)
        log.flush()

        def calls_of(function, *args):
            count = 0

            def profiler(frame, event, arg):
                nonlocal count
                if event in ("call", "c_call"):
                    count += 1

            sys.setprofile(profiler)
            try:
                result = function(*args)
            finally:
                sys.setprofile(None)
            return count, result

        def lines_of(function, *args):
            count = 0

            def tracer(frame, event, arg):
                nonlocal count
                count += event == "line"
                return tracer

            sys.settrace(tracer)
            try:
                function(*args)
            finally:
                sys.settrace(None)
            return count

        def open_and_analyse():
            reopened = WriteAheadLog(device)
            return reopened, reopened.analysis()

        records = len(log)
        assert records == 2000 + 200 + 100
        visits, (reopened, analysis) = calls_of(open_and_analyse)
        assert visits < 40 * records
        oracle = analyze_scan(reopened.records())
        history = reopened.records()
        # The quadratic loop it replaces:
        assert lines_of(analyze_scan, history) > 3 * lines_of(open_and_analyse)
        winners, finished, prepares, writers = analysis
        assert winners == oracle.winners
        assert writers - winners - finished == oracle.losers


class TestInDoubtRestartsAtTheRestartPoint:
    def _cut_down_mid_abort(self):
        """A prepared transaction's abort on a three-frame pool — the
        install of its before image steals a page — with the power cut
        before its abort record (or anything since the checkpoint) was
        flushed.  Tid 3 shrinks ``fat`` and Tid 2 grows ``small`` into
        the room that left, so the restored image no longer fits on its
        page: the install relocates it, and the new page's frame evicts
        the dirty page it left.  Returns the stack, the checkpoint's
        mark, the durable history, the restart's report and the pages
        written back between the checkpoint and the crash."""
        storage = StorageManager(capacity=3)
        small = storage.create_object(Tid(1), b"s" * 4)
        fat = storage.create_object(Tid(1), b"s" * 2200)
        storage.create_object(Tid(1), b"s" * 9000)
        storage.log_commit(Tid(1))
        storage.write_object(Tid(3), fat, b"0000")
        storage.write_object(Tid(2), small, b"g" * 2200)
        storage.log_prepare(Tid(3), gid=3, coordinator="c", sites=("c", "p"))
        mark = storage.checkpoint(active=(Tid(2), Tid(3))).redo_lsn
        home = storage.objects._locations[fat][0]
        stolen = []
        write_page = storage.disk.write_page
        storage.disk.write_page = lambda page_id, raw: (
            stolen.append(page_id), write_page(page_id, raw)
        )
        storage.undo(Tid(3))  # the coordinator said abort...
        storage.log_abort(Tid(3))  # ...and that record was never flushed
        assert storage.objects._locations[fat][0] != home  # relocated
        assert stolen == [home]  # the page it left, stolen
        storage.crash()
        history = storage.log.records()
        assert storage.log.redo_lsn == mark == 7
        return storage, (small, fat), history, storage.recover()

    def test_a_prepared_transaction_cut_down_mid_abort_is_where_its_log_says(
        self,
    ):
        """The counter-example the restart property once found, with its
        sign flipped.  Undo used to install and then log: the abort of a
        prepared transaction put its before image on disk and lost the
        compensation record with the power, so a restart with anyone in
        doubt redid the whole log.  Undo now logs and then installs, and
        the gate made the compensation record durable before the stolen
        page: the log-implied state *has* the restored image, with Tid 3
        still in doubt (its abort record was lost) — and restart gets
        there from its restart point, redoing only above the mark."""
        storage, (small, fat), history, report = self._cut_down_mid_abort()
        assert report.in_doubt == {Tid(3)} and report.losers == {Tid(2)}
        assert (report.restart_from, report.scanned) == (5, 5)
        assert (report.redo_from, report.redone) == (7, 1)
        assert read_state(storage) == expected_state(history)
        assert storage.read_object(Tid(0), fat) == b"s" * 2200
        assert storage.read_object(Tid(0), small) == b"s" * 4

    def test_the_old_undo_order_is_caught_by_it(self):
        """Install-then-log again, with no whole-log redo to paper over
        it: the page the install took the object off reached disk, its
        compensation record did not, and restart — keeping the in doubt,
        redoing above the mark — ends somewhere the log does not say."""
        with compensation_logged_after_install():
            storage, __, history, report = self._cut_down_mid_abort()
        assert report.in_doubt == {Tid(3)}
        assert (report.restart_from, report.redone) == (5, 0)
        assert read_state(storage) != expected_state(history)


class TestRedoPlacesOnTheScannedPages:
    def test_redone_creates_land_in_the_room_the_checkpoint_left(self):
        """After a checkpoint leaves page 1 on disk with room, 100 small
        committed creates are lost in the crash and redone.  The open
        caches nothing, and placement used to see only cached pages, so
        redo put them all on a new page 2; the free-space map, built by
        the table rebuild's scan, names page 1."""
        storage = StorageManager()
        storage.create_object(Tid(1), b"a" * 100)
        storage.log_commit(Tid(1))
        storage.checkpoint()
        oids = [storage.create_object(Tid(2), b"s" * 8) for __ in range(100)]
        storage.log_commit(Tid(2))
        storage.crash()
        assert storage.recover().redone == 100
        assert storage.disk.page_ids() == [1]  # [1, 2] before
        assert {storage.objects._locations[oid][0] for oid in oids} == {1}
        assert all(storage.read_object(Tid(0), oid) == b"s" * 8 for oid in oids)


class TestAVoteStaysOpenWhileAMemberIsUndecided:
    """Tid 3 voted for its local group {3, 4} in global group 7; the
    abort of the anchor, Tid 3, reached the device and its member's did
    not.  The vote is open while any tid it covers has no outcome."""

    def _restart(self):
        storage = StorageManager()
        first = storage.create_object(Tid(1), b"a")
        second = storage.create_object(Tid(1), b"b")
        storage.log_commit(Tid(1))
        storage.write_object(Tid(3), first, b"3")
        storage.write_object(Tid(4), second, b"4")
        storage.log_prepare(
            Tid(3), group=(Tid(4),), gid=7, coordinator="c", sites=("c", "p")
        )
        storage.undo(Tid(3))
        storage.log_abort(Tid(3))
        storage.sync_log()
        mark = storage.checkpoint(active=(Tid(4),))
        storage.crash()
        return storage, second, mark, storage.recover()

    def test_the_member_without_an_outcome_stays_in_doubt(self):
        storage, second, mark, report = self._restart()
        assert report.in_doubt == {Tid(4)}
        assert report.already_aborted == {Tid(3)} and not report.losers
        assert list(report.in_doubt_votes) == [7]
        assert storage.read_object(Tid(0), second) == b"4"  # kept
        # The vote pins the restart point below the checkpoint.
        assert 0 < report.restart_from < mark.lsn
        assert storage.log.analysis()[2] == open_votes_scan(storage.log)

    def test_a_vote_closed_by_its_anchor_is_caught(self):
        with open_vote_closed_by_anchor():
            storage, second, __, report = self._restart()
        assert report.in_doubt == set() and report.losers == {Tid(4)}
        assert storage.read_object(Tid(0), second) == b"b"  # undone
