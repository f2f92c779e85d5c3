"""Property: crash anywhere — committed effects survive, losers vanish."""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos.oracles import expected_state
from repro.chaos.stack import read_state
from repro.common.codec import decode_int, encode_int
from repro.common.ids import ObjectId, Tid
from repro.storage.log import MemoryLogDevice
from repro.storage.segmented import ShardedStorageManager
from repro.storage.store import StorageManager
from tests.chaos.mutations import redo_keeps_oldest_image
from tests.storage.scan_oracle import (
    assert_tail_analysis_matches,
    images_to_replay,
    max_tid_value_scan,
    redo_by_replay,
)

# Each step: (transaction index, object index, new value, commit?)
step = st.tuples(
    st.integers(0, 3),
    st.integers(0, 2),
    st.integers(0, 100),
)


class TestRecoveryProperty:
    @given(
        steps=st.lists(step, min_size=1, max_size=12),
        committed_mask=st.integers(0, 15),
        flush_pages=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_crash_recover_round_trip(self, steps, committed_mask, flush_pages):
        store = StorageManager()
        setup_tid = Tid(100)
        oids = [
            store.create_object(setup_tid, encode_int(0)) for __ in range(3)
        ]
        store.log_commit(setup_tid)

        expected = [0, 0, 0]
        last_committed_value = {}
        tids = [Tid(i + 1) for i in range(4)]
        writes = {tid: [] for tid in tids}
        for txn_index, obj_index, value in steps:
            tid = tids[txn_index]
            store.write_object(tid, oids[obj_index], encode_int(value))
            writes[tid].append((obj_index, value))

        committed = [
            tids[i] for i in range(4) if committed_mask & (1 << i)
        ]
        for tid in committed:
            store.log_commit(tid)
        store.log.flush()
        if flush_pages:
            store.pool.flush_all()

        store.crash()
        report = store.recover()

        for tid in committed:
            assert tid in report.winners

        # Expected value per object: replay only committed writes in
        # original order (losers' writes undone).
        state = [0, 0, 0]
        for txn_index, obj_index, value in steps:
            if tids[txn_index] in committed:
                state[obj_index] = value
        # Careful: undo uses before-images; interleaved loser writes can
        # clobber later committed values (the paper's acknowledged
        # physical-undo semantics).  We only assert the clean cases:
        # objects never touched by a loser must hold the committed value,
        # and objects never touched by a winner must be back to 0.
        loser_touched = {
            obj_index
            for txn_index, obj_index, __ in steps
            if tids[txn_index] not in committed
        }
        winner_touched = {
            obj_index
            for txn_index, obj_index, __ in steps
            if tids[txn_index] in committed
        }
        for obj_index, oid in enumerate(oids):
            actual = decode_int(store.read_object(Tid(0), oid))
            if obj_index not in loser_touched:
                assert actual == state[obj_index]
            elif obj_index not in winner_touched:
                assert actual == 0

    @given(steps=st.lists(step, min_size=1, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_recovery_twice_is_idempotent(self, steps):
        store = StorageManager()
        setup_tid = Tid(100)
        oids = [
            store.create_object(setup_tid, encode_int(0)) for __ in range(3)
        ]
        store.log_commit(setup_tid)
        for txn_index, obj_index, value in steps:
            store.write_object(
                Tid(txn_index + 1), oids[obj_index], encode_int(value)
            )
        store.log_commit(Tid(1))
        store.log.flush()
        store.crash()
        store.recover()
        first = [decode_int(store.read_object(Tid(0), oid)) for oid in oids]
        store.crash()
        store.recover()
        second = [decode_int(store.read_object(Tid(0), oid)) for oid in oids]
        assert first == second


# ---------------------------------------------------------------------------
# Restart from the tail's index, bounded by the checkpoint mark
# ---------------------------------------------------------------------------
#
# Random histories of writes (of three sizes, so values move between a
# slot and a chunk chain) / creates / deletes / delegation chains /
# savepoint rollbacks / group commits / prepares / aborts / checkpoints
# (some with the marker's fsync lied about), power-cut wherever the
# "crash" steps fall (so the durable prefix ends at whatever the
# commits, checkpoints, write-ahead forces and explicit flushes had made
# durable), on the flat log and on two segments.  Every power cut is
# restarted three ways from the same surviving devices — the restart
# hints dropped, one checkpoint stale, and as the last checkpoint left
# them — because the hint is a bound and not evidence; and once more
# with redo replaying every image above the mark (the oracle,
# ``scan_oracle.redo_by_replay``): the product installs each object
# touched there once, at its newest image, and must leave the same
# store.  Each way, the analysis read off the tail's index must be
# what the scan oracle derives from that tail and agree with a scan of
# the whole history on every transaction the tail speaks of; the
# recovered store — decoded from the restart point, redone from the last
# durable marker's ``redo_lsn`` only — must be the harness's own pure
# replay of the whole durable log; and the highest tid must be the whole
# history's, so that none is ever handed out twice.

_N_SLOTS = 4
_SIZES = (4, 2200, 9000)  # in-page, one per page, a three-page large object
_MAX_EXAMPLES = 1500 if os.environ.get("CHAOS_BUDGET") == "long" else 80

_value = st.tuples(st.integers(0, 9), st.sampled_from(_SIZES)).map(
    lambda pair: (b"%d" % pair[0]) * pair[1]
)
_slot = st.integers(0, _N_SLOTS - 1)
_pick = st.integers(0, 7)

_op = st.one_of(
    st.tuples(st.just("write"), _slot, _pick, _value),
    st.tuples(st.just("write"), _slot, _pick, _value),
    st.tuples(st.just("create"), _slot, _value),
    st.tuples(st.just("delete"), _slot, _pick),
    st.tuples(st.just("delegate"), _slot, _slot, st.integers(1, 255)),
    st.tuples(st.just("commit"), _slot, st.one_of(st.none(), _slot)),
    st.tuples(st.just("prepare"), _slot),
    st.tuples(st.just("abort"), _slot),
    st.tuples(st.just("rollback"), _slot, _pick),
    st.tuples(st.just("checkpoint"), st.booleans(), st.booleans()),
    st.tuples(st.just("flush")),
    st.tuples(st.just("crash"), st.booleans()),
)


class _LyingDevice(MemoryLogDevice):
    """Reports success for the flush after a checkpoint marker's append
    and makes nothing durable, while ``lie`` is set."""

    lie = pending = False

    def append(self, raw):
        super().append(raw)
        self.pending = self.lie and raw[0] == 6  # a CheckpointRecord

    def flush(self):
        if self.pending:
            self.pending = False
        else:
            super().flush()


class _History:
    """Applies ops under a one-writer-per-object discipline (the lock
    manager's job, absent at this level; delegation hands the object on)
    and checks every restart."""

    def __init__(self, n_shards, group_commit):
        if n_shards is None:
            self.storage = StorageManager(
                capacity=3, group_commit=group_commit
            )
        else:
            self.storage = ShardedStorageManager(
                n_shards=n_shards, capacity=3, group_commit=group_commit
            )
        for segment in self._segments():
            segment.device = _LyingDevice()
        # Per segment, the restart hint before the checkpoint that last
        # moved any: older, so still a bound.
        self.stale = [None] * len(self._segments())
        self.next_tid = 1
        self.tids = {}  # slot -> Tid of its active transaction
        self.prepared = set()  # slots that voted: only an outcome is left
        self.owner = {}  # oid value -> slot responsible for it
        self.baseline = {}  # committed state at the last truncation
        setup = self._begin(0)
        for size in _SIZES:
            self.storage.create_object(setup, b"s" * size)
        self._resolve(0, commit=True)

    def _stacks(self):
        return getattr(self.storage, "shards", [self.storage])

    def _segments(self):
        return [stack.log for stack in self._stacks()]

    def _hints(self):
        return [segment.device.hint for segment in self._segments()]

    def _begin(self, slot):
        if slot not in self.tids:
            self.tids[slot] = Tid(self.next_tid)
            self.next_tid += 1
        return self.tids[slot]

    def _resolve(self, slot, commit, group=()):
        tid = self.tids.pop(slot, None)
        if tid is None:
            return
        members = [self.tids.pop(other) for other in group]
        if not commit:
            self.storage.undo(tid)
            self.storage.log_abort(tid)
        elif slot in self.prepared:  # the coordinator said commit
            self.storage.log_decision(tid, tid.value, "commit")
        else:
            self.storage.log_commit(tid, group=members)
        done = {slot, *group}
        self.prepared -= done
        self.owner = {
            oid: holder for oid, holder in self.owner.items()
            if holder not in done
        }

    def _target(self, slot, choice):
        """An existing object this slot may write, or ``None``."""
        existing = sorted(read_state(self.storage))
        if not existing or slot in self.prepared:
            return None
        oid_value = existing[choice % len(existing)]
        if self.owner.get(oid_value, slot) != slot:
            return None
        self.owner[oid_value] = slot
        return ObjectId(oid_value)

    def apply(self, op):
        kind = op[0]
        storage = self.storage
        if kind == "write":
            oid = self._target(op[1], op[2])
            if oid is not None:
                storage.write_object(self._begin(op[1]), oid, op[3])
        elif kind == "create":
            if op[1] not in self.prepared:
                oid = storage.create_object(self._begin(op[1]), op[2])
                self.owner[oid.value] = op[1]
        elif kind == "delete":
            oid = self._target(op[1], op[2])
            if oid is not None:
                storage.delete_object(self._begin(op[1]), oid)
        elif kind == "delegate":
            source, target, mask = op[1], op[2], op[3]
            mine = sorted(o for o, s in self.owner.items() if s == source)
            moved = [o for i, o in enumerate(mine) if mask & (1 << (i % 8))]
            if (
                source != target
                and source in self.tids
                and moved
                and not {source, target} & self.prepared
            ):
                storage.log_delegate(
                    self.tids[source],
                    self._begin(target),
                    [ObjectId(o) for o in moved],
                )
                for oid_value in moved:
                    self.owner[oid_value] = target
        elif kind == "commit":
            partner = op[2]
            group = ()
            if (
                partner is not None
                and partner != op[1]
                and partner in self.tids
                and not {op[1], partner} & self.prepared
            ):
                group = (partner,)
            self._resolve(op[1], commit=True, group=group)
        elif kind == "prepare":
            tid = self.tids.get(op[1])
            if tid is not None and op[1] not in self.prepared:
                storage.log_prepare(
                    tid, gid=tid.value, coordinator="c", sites=("c", "p")
                )
                self.prepared.add(op[1])
        elif kind == "abort":
            self._resolve(op[1], commit=False)
        elif kind == "rollback":  # to a savepoint before one of its updates
            tid = self.tids.get(op[1])
            if tid is not None and op[1] not in self.prepared:
                mine = storage.log.updates_by(tid)
                if mine:
                    storage.undo_to(
                        tid, mine[op[2] % len(mine)].lsn.value - 1
                    )
        elif kind == "checkpoint":
            active = sorted(self.tids.values(), key=lambda tid: tid.value)
            sharp, lied = op[1] and not active, op[2]
            if sharp:
                self.baseline = read_state(storage)
            before = self._hints()
            for segment in self._segments():
                segment.device.lie = lied
            storage.checkpoint(active=active, truncate=sharp)
            for segment in self._segments():
                segment.device.lie = False
            if lied:  # no marker is durable: no hint may have moved
                assert self._hints() == ([None] * len(before) if sharp
                                         else before)
            if self._hints() != before:
                self.stale = [None] * len(before) if sharp else before
        elif kind == "flush":
            storage.sync_log()
        else:
            self.crash(keep_tail=op[1])

    def crash(self, keep_tail=False):
        if keep_tail:  # the OS wrote the volatile tail back in time
            for segment in self._segments():
                segment.device._advance_durable()
        self.storage.crash()
        history = self.storage.log.records()
        devices = [
            (stack.disk, stack.log.device) for stack in self._stacks()
        ]
        survived = [
            (disk.snapshot(), device.snapshot()) for disk, device in devices
        ]
        # As the last checkpoint left them last: the history goes on
        # from that restart.  The first is the oracle's.
        left = self._hints()
        states = []
        for hints in (left, [None] * len(devices), self.stale, left):
            for (disk, device), (pages, records), hint in zip(
                devices, survived, hints
            ):
                disk.restore(pages)
                device.restore(records)
                device.hint = hint
            if states:
                states.append(self._restart(history))
            else:
                with redo_by_replay():
                    states.append(self._restart(history, replayed=True))
        assert states[0] == states[1] == states[2] == states[3]
        self.tids.clear()
        self.prepared.clear()
        self.owner.clear()

    def _restart(self, history, replayed=False):
        """Reopen every segment at whatever hint its device holds,
        recover, and check the outcome against ``history``."""
        self.storage.crash()
        segments = self._segments()
        tail = sorted(
            (record for segment in segments for record in segment._decoded),
            key=lambda record: record.lsn.value,
        )
        starts = [segment.restart_from for segment in segments]
        marks = [segment.redo_lsn for segment in segments]
        images = images_to_replay(segments)
        report = self.storage.recover()
        assert_tail_analysis_matches(report, tail, history)
        # In doubt or not: restart reads its tail, and redoes above the mark.
        assert (report.scanned, report.restart_from) == (
            len(tail), min(starts),
        )
        assert report.redo_from == min(marks)
        # One install per object with an image above its segment's mark.
        installs = len(images if replayed else {r.oid for r in images})
        assert (report.redone, report.superseded) == (
            installs, len(images) - installs,
        )
        assert self.storage.log.max_tid_value() == max(
            max_tid_value_scan(segment) for segment in segments
        )
        state = read_state(self.storage)
        assert state == expected_state(history, baseline=self.baseline)
        return state


class TestIndexDrivenRestartProperty:
    @given(
        ops=st.lists(_op, min_size=1, max_size=40),
        n_shards=st.sampled_from([None, 2]),
        group_commit=st.sampled_from([None, 2]),
    )
    @settings(max_examples=_MAX_EXAMPLES, deadline=None)
    def test_index_analysis_is_the_scan_and_state_is_the_replay(
        self, ops, n_shards, group_commit
    ):
        history = _History(n_shards, group_commit)
        for op in ops:
            history.apply(op)
        history.crash()
        # A second power cut right after recovery changes nothing.
        state = read_state(history.storage)
        history.crash()
        assert read_state(history.storage) == state

    @pytest.mark.parametrize("n_shards", [None, 2])
    def test_a_redo_that_keeps_the_oldest_image_is_caught(self, n_shards):
        """The smallest history that tells newest from oldest: one
        object written twice by a winner, no page flushed."""
        history = _History(n_shards, None)
        for op in [
            ("write", 0, 0, b"1" * 4),
            ("write", 0, 0, b"2" * 4),
            ("commit", 0, None),
        ]:
            history.apply(op)
        with redo_keeps_oldest_image(), pytest.raises(AssertionError):
            history.crash()
