"""Crash sweep over the sharded engine's parallel group commit.

The dangerous window is *inside* the cross-shard commit barrier: a
multi-shard transaction eagerly flushes every foreign touched segment,
then writes its commit record into the home segment.  A crash between
those flushes (some segments durable, some not, commit record absent or
present) must still recover to an atomic per-transaction outcome once
the segments are merged by LSN.

The sweep is exhaustive by accounting, like every other: the scenario
plugs into the one driver (:mod:`repro.chaos.sweep`) as a fourth *kind*
defined right here — a bare :class:`~repro.storage.store.StorageManager` of four shards with no
transaction manager above it, judged by its own atomicity oracle.  A
probe counts every numbered I/O step across *all* segments (one shared
injector), then ``crash_steps`` re-runs the scenario crashing at each.
"""

from __future__ import annotations

from repro.chaos.faults import FaultInjector
from repro.chaos.sweep import crash_steps, probe, sweep
from repro.common.codec import decode_int, encode_int
from repro.common.ids import Tid
from repro.storage.log import CommitRecord
from repro.storage.store import StorageManager

N_SHARDS = 4
N_OBJECTS = 8
# Named objects place by name hash; these names cover shards 0..3 in
# order (verified by test_probe_exercises_the_barrier's busy check).
MULTI_INDEXES = (1, 5, 0, 4)
SINGLE_INDEX = 7
SETUP = Tid(100)
T_MULTI = Tid(1)  # writes objects on every shard: pays the barrier
T_SINGLE = Tid(2)  # single-shard: pure per-shard group commit


def _drive(injector, holder):
    """The scenario: one multi-shard and one single-shard commit.

    ``holder`` receives the live stack as it is built, so a mid-scenario
    :class:`CrashPoint` still leaves the caller holding the store, the
    oids created so far, and markers bracketing the barrier window.
    """
    store = StorageManager(n_shards=N_SHARDS, injector=injector)
    holder["store"] = store
    oids = holder.setdefault("oids", [])
    for index in range(N_OBJECTS):
        oids.append(
            store.create_object(SETUP, encode_int(0), name=f"obj{index}")
        )
    store.log_commit(SETUP)
    store.sync_log()

    # T_MULTI touches every shard.
    for offset, index in enumerate(MULTI_INDEXES):
        store.write_object(T_MULTI, oids[index], encode_int(offset + 10))
    # T_SINGLE stays on one shard, on an object T_MULTI never touches.
    store.write_object(T_SINGLE, oids[SINGLE_INDEX], encode_int(77))

    holder["barrier_start"] = injector.step_count
    store.log_commit(T_MULTI)  # barrier: foreign flushes, then home
    holder["barrier_end"] = injector.step_count
    store.log_commit(T_SINGLE)
    store.sync_log()


def _writes_of(tid, oids):
    if tid == T_MULTI and len(oids) == N_OBJECTS:
        return {
            oids[index].value: offset + 10
            for offset, index in enumerate(MULTI_INDEXES)
        }
    if tid == T_SINGLE and len(oids) == N_OBJECTS:
        return {oids[SINGLE_INDEX].value: 77}
    return {}


def _check_atomic(store, oids):
    """The oracle: merged-log commit records decide; outcomes are
    all-or-nothing per transaction."""
    durable_commits = set()
    for record in store.log.records():
        if isinstance(record, CommitRecord):
            durable_commits |= record.committed_tids()
    state = store.object_state()

    if SETUP not in durable_commits:
        # Crashed during setup: the later transactions never ran.
        assert T_MULTI not in durable_commits
        assert T_SINGLE not in durable_commits
        return durable_commits

    for oid in oids:
        assert oid.value in state, f"setup object {oid} lost"

    for tid in (T_MULTI, T_SINGLE):
        writes = _writes_of(tid, oids)
        if tid in durable_commits:
            for oid_value, value in writes.items():
                assert decode_int(state[oid_value]) == value, (
                    f"{tid} committed but write to oid {oid_value} lost"
                )
        else:
            for oid_value in writes:
                assert decode_int(state[oid_value]) == 0, (
                    f"{tid} not committed but its write to oid "
                    f"{oid_value} survived"
                )
    return durable_commits


class _BareStore:
    """What this kind drives: one injector and whatever got built."""

    def __init__(self, plan):
        self.injector = FaultInjector(plan=plan)
        self.holder = {}


class BarrierScenario:
    """The whole seam: build / drive / judge (+ the probe hook)."""

    name = "sharded_parallel_group_commit"
    kind = "bare-sharded-store"
    surfaced = ()

    def build(self, plan):
        return _BareStore(plan)

    def drive(self, system):
        _drive(system.injector, system.holder)

    def probed(self, verdict):
        pass

    def judge(self, verdict):
        verdict.judgment = "atomic-per-transaction"
        system = verdict.system
        system.injector.disarm()
        store, oids = system.holder["store"], system.holder["oids"]
        store.crash()
        store.recover()
        try:
            _check_atomic(store, oids)
        except AssertionError as failed:
            verdict.violations.append(f"atomicity: {failed}")
        # Recovery is idempotent: crash/recover again, same state.
        before = dict(store.object_state())
        store.crash()
        store.recover()
        if dict(store.object_state()) != before:
            verdict.violations.append("idempotence: second recovery differs")


SPEC = BarrierScenario()


class TestParallelGroupCommitSweep:
    def test_probe_exercises_the_barrier(self):
        """The clean run must actually contain the dangerous window:
        several I/O steps between the last data append and the moment
        T_MULTI's commit record is durable (the foreign barrier flushes)."""
        trace = probe(SPEC)
        holder = trace.system.holder
        assert trace.step_count > 0
        window = range(
            holder["barrier_start"] + 1, holder["barrier_end"] + 1
        )
        assert len(window) >= 2, "barrier window collapsed to one step"
        flushes_in_window = [
            step
            for step in trace.steps
            if step.number in window and step.kind == "log_flush"
        ]
        # Every foreign touched segment flushes inside the barrier.
        assert len(flushes_in_window) >= N_SHARDS - 1
        # All segments got traffic (the transaction really is multi-shard).
        store = holder["store"]
        busy = {
            shard for shard, stats in enumerate(store.segment_stats())
            if stats["appends"] > 0
        }
        assert busy == set(range(N_SHARDS))

    def test_every_crash_point_recovers_atomically(self):
        trace = probe(SPEC)
        holder = trace.system.holder
        barrier_window = set(
            range(holder["barrier_start"] + 1, holder["barrier_end"] + 1)
        )
        assert trace.step_count > 0 and barrier_window

        result = sweep(SPEC, crash_steps(trace), trace=trace)
        assert result.ok, result.describe()
        assert result.runs == trace.step_count
        # Every run really died at its planned step.
        assert [v.crash.step for v in result.verdicts] == list(
            range(1, trace.step_count + 1)
        )

        # Exhaustive by accounting — and therefore the sweep crashed at
        # every step of the barrier window in particular.
        assert result.coverage_complete
        assert result.covered["crash"] == set(range(1, trace.step_count + 1))
        assert barrier_window <= result.covered["crash"]
