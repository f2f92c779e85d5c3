"""Durable executions of the workflow engine: protocol, persistence,
recovery.

Unit-level companion to the chaos sweeps in
``tests/chaos/test_workflow_crash.py``: no fault injection here, just
the start/resume/cancel/signal/status protocol, the durable record
stream it leaves behind, and engine hand-over — a second engine built
over the same storage must ``recover()`` the first one's in-flight
executions and finish them.

Every engine built here carries :func:`_fold_equals_live` on its
``on_record`` seam: after *every* record the fold of the log must equal
the live image — the image is changed by one transition function, so
the two cannot drift (the chaos oracle compares them once, at the end).
"""

import pytest

from repro.common.codec import decode_int, encode_int
from repro.common.errors import AssetError
from repro.core.manager import TransactionManager
from repro.runtime.coop import CooperativeRuntime
from repro.storage.store import StorageManager
from repro.workflow.definition import DefinitionRegistry, WorkflowDefinition
from repro.workflow.engine import (
    ExecutionLeaseBoard,
    TaskStatus,
    WorkflowEngine,
    _WaitToken,
)
from repro.workflow.execution import ExecutionStatus, fold_all
from repro.workflow.records import FINISHED, STARTED, STEP_ATTEMPT
from repro.workflow.spec import WorkflowSpec
from tests.conftest import workflow_records
from tests.storage.scan_oracle import history_scan


def _set_value(tx, oid, value):
    yield tx.write(oid, encode_int(value))
    return value


def _make_oids(runtime, names):
    def setup(tx):
        oids = {}
        for name in names:
            oids[name] = yield tx.create(encode_int(0), name=name)
        return oids

    result = runtime.run(setup)
    assert result.committed
    return result.value


def _value(runtime, oid):
    def body(tx):
        return decode_int((yield tx.read(oid)))

    return runtime.run(body).value


def _approval_definition(name, oids, timeout=None, on_timeout="fail"):
    """place → (wait "approve") → confirm; place is compensable."""
    spec = WorkflowSpec(name=f"{name}_spec")
    place = spec.task("place")
    place.alternative(_set_value, args=(oids["order"], 1), label="place")
    place.compensate_with(_set_value, args=(oids["order"], 0))
    confirm = spec.task("confirm", depends_on=("place",))
    confirm.alternative(_set_value, args=(oids["audit"], 1), label="confirm")
    return WorkflowDefinition(name, spec).wait_for(
        "confirm", "approve", timeout=timeout, on_timeout=on_timeout
    )


def _folded(engine, wid):
    """The execution as the log alone tells it — its records, and what
    the checkpoint markers summarise of those a truncation discarded —
    with the winners a scan finds, not the engine's."""
    return fold_all(*history_scan(engine.storage.log))[wid]


def _fold_equals_live(engine):
    """The ``on_record`` check: fold(log) == the live image, field by field."""

    def check(wid, kind, fields):
        folded = _folded(engine, wid)
        live = engine.execution(wid)
        for field in (
            "definition", "status", "signals", "waiting_step",
            "waiting_signal", "wait_timeout", "wait_on_timeout", "outcome",
            "cancel_requested", "context",
        ):
            assert getattr(folded, field) == getattr(live, field), (
                kind, field,
            )
        assert list(folded.steps) == list(live.steps), kind
        for name, state in live.steps.items():
            for field in (
                "status", "alt", "tid_value", "attempts", "comp_attempts",
            ):
                assert getattr(folded.steps[name], field) == getattr(
                    state, field
                ), (kind, name, field)

    return check


def _checked(runtime, registry, **options):
    engine = WorkflowEngine(runtime, registry, **options)
    engine.on_record = _fold_equals_live(engine)
    return engine


def _engine(runtime, *definitions):
    registry = DefinitionRegistry()
    for definition in definitions:
        registry.register(definition)
    return _checked(runtime, registry)


def _handover(engine, checkpoint=None):
    """A fresh manager/runtime/engine over the same storage, recovered:
    after a power cut, when a ``checkpoint`` (``"plain"`` or
    ``"truncate"``) came first."""
    storage = engine.runtime.manager.storage
    if checkpoint is not None:
        engine.runtime.manager.checkpoint(truncate=checkpoint == "truncate")
        storage.crash()
        storage.recover()
    runtime = CooperativeRuntime(TransactionManager(storage=storage))
    successor = _checked(runtime, engine.registry)
    return successor, successor.recover()


class TestProtocol:
    def test_straight_line_completes(self, rt):
        oids = _make_oids(rt, ("order", "audit"))
        spec = WorkflowSpec(name="line")
        spec.task("a").alternative(_set_value, args=(oids["order"], 1))
        spec.task("b", depends_on=("a",)).alternative(
            _set_value, args=(oids["audit"], 2)
        )
        engine = _engine(rt, WorkflowDefinition("line", spec))
        wid = engine.start("line")
        assert engine.status(wid) is ExecutionStatus.COMPLETED
        assert _value(rt, oids["order"]) == 1
        assert _value(rt, oids["audit"]) == 2
        assert engine.stats["started"] == 1
        assert engine.stats["completed"] == 1
        assert engine.stats["steps_committed"] == 2

    def test_record_stream(self, rt):
        oids = _make_oids(rt, ("order", "audit"))
        spec = WorkflowSpec(name="line")
        spec.task("a").alternative(_set_value, args=(oids["order"], 1))
        engine = _engine(rt, WorkflowDefinition("line", spec))
        wid = engine.start("line")
        kinds = [
            record.kind
            for record in workflow_records(
                engine.storage.log.records(), wid=wid
            )
        ]
        assert kinds == [STARTED, STEP_ATTEMPT, FINISHED]

    def test_unknown_definition_rejected(self, rt):
        engine = _engine(rt)
        with pytest.raises(AssetError):
            engine.start("ghost")

    def test_duplicate_wid_rejected(self, rt):
        oids = _make_oids(rt, ("order", "audit"))
        spec = WorkflowSpec(name="line")
        spec.task("a").alternative(_set_value, args=(oids["order"], 1))
        engine = _engine(rt, WorkflowDefinition("line", spec))
        wid = engine.start("line", wid=7)
        with pytest.raises(AssetError, match="already exists"):
            engine.start("line", wid=wid)

    def test_unknown_wid_rejected(self, rt):
        engine = _engine(rt)
        with pytest.raises(AssetError, match="unknown"):
            engine.status(99)


class TestSignals:
    def test_park_then_deliver(self, rt):
        oids = _make_oids(rt, ("order", "audit"))
        engine = _engine(rt, _approval_definition("approval", oids))
        wid = engine.start("approval")
        assert engine.status(wid) is ExecutionStatus.WAITING_SIGNAL
        assert engine.execution(wid).waiting_signal == "approve"
        assert _value(rt, oids["order"]) == 1  # place committed
        assert _value(rt, oids["audit"]) == 0  # confirm parked
        assert engine.signal(wid, "approve", "qa") is (
            ExecutionStatus.COMPLETED
        )
        assert _value(rt, oids["audit"]) == 1
        assert engine.execution(wid).signals["approve"] == "qa"

    def test_signal_without_resume(self, rt):
        oids = _make_oids(rt, ("order", "audit"))
        engine = _engine(rt, _approval_definition("approval", oids))
        wid = engine.start("approval")
        status = engine.signal(wid, "approve", resume=False)
        assert status is ExecutionStatus.RUNNING
        assert engine.resume(wid) is ExecutionStatus.COMPLETED

    def test_unrelated_signal_keeps_waiting(self, rt):
        oids = _make_oids(rt, ("order", "audit"))
        engine = _engine(rt, _approval_definition("approval", oids))
        wid = engine.start("approval")
        assert engine.signal(wid, "noise") is ExecutionStatus.WAITING_SIGNAL
        # The noise is still durably remembered for later waits.
        assert "noise" in engine.execution(wid).signals

    def test_pre_delivered_signal_never_parks(self, rt):
        oids = _make_oids(rt, ("order", "audit"))
        definition = _approval_definition("approval", oids)
        spec = definition.spec
        engine = _engine(rt, definition)
        # Deliver before the wait is reached: start a wid, signal it
        # while parked is the normal path; instead fold the signal in
        # first by starting, signalling, and checking a *second* run of
        # the same definition still parks (signals are per-execution).
        first = engine.start("approval")
        engine.signal(first, "approve")
        second = engine.start("approval")
        assert engine.status(second) is ExecutionStatus.WAITING_SIGNAL
        assert spec is definition.spec  # definition untouched by runs


class TestTimersAndCancel:
    def test_timeout_fail_compensates(self, rt):
        oids = _make_oids(rt, ("order", "audit"))
        engine = _engine(
            rt, _approval_definition("approval", oids, timeout=25)
        )
        wid = engine.start("approval")
        assert engine.expire_wait(wid) is ExecutionStatus.COMPENSATED
        assert _value(rt, oids["order"]) == 0  # place compensated
        assert _value(rt, oids["audit"]) == 0
        assert engine.execution(wid).status_of("place") is (
            TaskStatus.COMPENSATED
        )
        assert engine.stats["timeouts"] == 1

    def test_timeout_skip_continues(self, rt):
        oids = _make_oids(rt, ("order", "audit"))
        engine = _engine(
            rt,
            _approval_definition(
                "approval", oids, timeout=25, on_timeout="skip"
            ),
        )
        wid = engine.start("approval")
        assert engine.expire_wait(wid) is ExecutionStatus.COMPLETED
        assert engine.execution(wid).status_of("confirm") is (
            TaskStatus.SKIPPED
        )
        assert _value(rt, oids["order"]) == 1  # place survives
        assert _value(rt, oids["audit"]) == 0  # confirm never ran

    def test_expire_without_timeout_rejected(self, rt):
        oids = _make_oids(rt, ("order", "audit"))
        engine = _engine(rt, _approval_definition("approval", oids))
        wid = engine.start("approval")
        with pytest.raises(AssetError, match="no"):
            engine.expire_wait(wid)

    def test_cancel_parked_run(self, rt):
        oids = _make_oids(rt, ("order", "audit"))
        engine = _engine(rt, _approval_definition("approval", oids))
        wid = engine.start("approval")
        assert engine.cancel(wid) is ExecutionStatus.CANCELLED
        assert _value(rt, oids["order"]) == 0  # place undone
        # The wait's timer is gone with the execution.
        assert engine.deadlines.deadline_of(_WaitToken(wid)) is None

    def test_cancel_terminal_is_noop(self, rt):
        oids = _make_oids(rt, ("order", "audit"))
        engine = _engine(rt, _approval_definition("approval", oids))
        wid = engine.start("approval")
        engine.signal(wid, "approve")
        assert engine.cancel(wid) is ExecutionStatus.COMPLETED
        assert _value(rt, oids["audit"]) == 1


@pytest.mark.parametrize("checkpoint", [None, "plain", "truncate"])
class TestHandover:
    """A successor engine over the same storage picks up the pieces —
    as it stands, or after a checkpoint (one that truncates the log
    too) and a power cut: what restart needs of the history survives
    in the checkpoint marker's summary."""

    def test_recover_parked_and_finish(self, rt, checkpoint):
        oids = _make_oids(rt, ("order", "audit"))
        engine = _engine(rt, _approval_definition("approval", oids))
        wid = engine.start("approval")
        successor, recovered = _handover(engine, checkpoint)
        assert recovered == [wid]
        image = successor.execution(wid)
        assert image.status is ExecutionStatus.WAITING_SIGNAL
        assert image.waiting_signal == "approve"
        assert image.status_of("place") is TaskStatus.COMMITTED
        status = successor.signal(wid, "approve")
        assert status is ExecutionStatus.COMPLETED
        assert _value(successor.runtime, oids["audit"]) == 1

    def test_recover_rearms_timer(self, rt, checkpoint):
        oids = _make_oids(rt, ("order", "audit"))
        engine = _engine(
            rt, _approval_definition("approval", oids, timeout=30)
        )
        wid = engine.start("approval")
        successor, __ = _handover(engine, checkpoint)
        assert successor.deadlines.deadline_of(_WaitToken(wid)) is not None
        assert successor.expire_wait(wid) is ExecutionStatus.COMPENSATED
        assert _value(successor.runtime, oids["order"]) == 0

    def test_recover_skips_terminal(self, rt, checkpoint):
        oids = _make_oids(rt, ("order", "audit"))
        engine = _engine(rt, _approval_definition("approval", oids))
        wid = engine.start("approval")
        engine.signal(wid, "approve")
        successor, recovered = _handover(engine, checkpoint)
        assert recovered == []
        assert successor.status(wid) is ExecutionStatus.COMPLETED

    def test_recovered_signal_not_redelivered(self, rt, checkpoint):
        oids = _make_oids(rt, ("order", "audit"))
        engine = _engine(rt, _approval_definition("approval", oids))
        wid = engine.start("approval")
        engine.signal(wid, "approve", "qa", resume=False)
        successor, recovered = _handover(engine, checkpoint)
        assert recovered == [wid]
        image = successor.execution(wid)
        assert image.status is ExecutionStatus.RUNNING
        assert image.signals["approve"] == "qa"
        assert successor.resume(wid) is ExecutionStatus.COMPLETED

    def test_wid_allocation_resumes_past_recovered(self, rt, checkpoint):
        oids = _make_oids(rt, ("order", "audit"))
        engine = _engine(rt, _approval_definition("approval", oids))
        engine.start("approval", wid=5)
        successor, __ = _handover(engine, checkpoint)
        assert successor.start("approval") == 6

    def test_parked_and_finished_survive_together(self, rt, checkpoint):
        oids = _make_oids(rt, ("order", "audit"))
        engine = _engine(rt, _approval_definition("approval", oids))
        parked, finished = engine.start("approval"), engine.start("approval")
        engine.signal(finished, "approve")
        successor, recovered = _handover(engine, checkpoint)
        assert recovered == [parked]
        assert successor.status(finished) is ExecutionStatus.COMPLETED
        assert successor.start("approval") == finished + 1


@pytest.mark.parametrize("checkpoint", ["plain", "truncate"])
def test_a_step_committed_in_another_segment_survives_a_checkpoint(
    checkpoint,
):
    # On two shards a step commits in the segment its writes touched
    # while its attempt record lies in segment 0: a plain checkpoint's
    # restart point stays below the attempt, and a truncation carries
    # the outcome from the other segment.
    storage = StorageManager(n_shards=2)
    rt = CooperativeRuntime(TransactionManager(storage=storage))
    made = _make_oids(rt, ("audit", "b", "c", "d"))
    order = next(
        oid for name, oid in made.items()
        if name != "audit" and storage.router.shard_of(oid) == 1
    )
    oids = {"order": order, "audit": made["audit"]}
    engine = _engine(rt, _approval_definition("approval", oids))
    wid = engine.start("approval")
    rt.run(_set_value, args=(made["audit"], 0))  # the point may move past
    successor, recovered = _handover(engine, checkpoint)
    assert recovered == [wid]
    assert successor.execution(wid).status_of("place") is TaskStatus.COMMITTED
    assert successor.signal(wid, "approve") is ExecutionStatus.COMPLETED


class TestFoldOracle:
    def test_fold_agrees_with_live_engine(self, rt):
        oids = _make_oids(rt, ("order", "audit"))
        engine = _engine(rt, _approval_definition("approval", oids))
        wid = engine.start("approval")
        engine.signal(wid, "approve", "qa")
        folded = _folded(engine, wid)
        live = engine.execution(wid)
        assert folded.status is live.status
        assert folded.signals == live.signals
        for name, state in live.steps.items():
            assert folded.status_of(name) is state.status
            assert folded.step(name).tid_value == state.tid_value

    def test_fold_sees_compensations(self, rt):
        oids = _make_oids(rt, ("order", "audit"))
        engine = _engine(
            rt, _approval_definition("approval", oids, timeout=25)
        )
        wid = engine.start("approval")
        engine.expire_wait(wid)
        folded = _folded(engine, wid)
        assert folded.status is ExecutionStatus.COMPENSATED
        assert folded.status_of("place") is TaskStatus.COMPENSATED


class TestExecutionLeases:
    """Workflow-level ownership leases: the coordinator-lease analogue.

    Two engine instances over one storage stack share an
    ``ExecutionLeaseBoard``; whoever drives an execution heartbeats its
    lease through durable progress, a rival may claim it only after the
    lease lapses, and a takeover re-reads the durable log so the new
    owner never drives a stale image.
    """

    def _pair(self, rt, oids, lease=16):
        board = ExecutionLeaseBoard(rt.manager.clock)
        registry = DefinitionRegistry()
        registry.register(_approval_definition("approval", oids))
        first = _checked(
            rt, registry, owner="first", leases=board,
            execution_lease=lease,
        )
        # Same storage, same clock: a rival engine on the same site.
        runtime = CooperativeRuntime(
            TransactionManager(
                storage=rt.manager.storage, clock=rt.manager.clock
            )
        )
        # No per-record fold check on the rival: its manager numbers
        # tids from where the log stood when it was built, so they
        # collide with the owner's and a fold by tid would misread them.
        second = WorkflowEngine(
            runtime, registry, owner="second", leases=board,
            execution_lease=lease,
        )
        return board, first, second

    def test_live_lease_blocks_double_resume(self, rt):
        oids = _make_oids(rt, ("order", "audit"))
        board, first, second = self._pair(rt, oids)
        wid = first.start("approval")
        assert first.status(wid) is ExecutionStatus.WAITING_SIGNAL
        assert board.owner_of(wid) == "first"
        assert board.live(wid)
        recovered = second.recover()
        assert recovered == [wid]
        # The double-resume regression: while the owner's lease is
        # live, a rival recovery must be refused, not raced.
        with pytest.raises(AssetError, match="live lease"):
            second.signal(wid, "approve")
        with pytest.raises(AssetError, match="live lease"):
            second.cancel(wid)
        # resume() on a parked run is a no-op before it ever claims.
        assert second.resume(wid) is ExecutionStatus.WAITING_SIGNAL
        assert board.owner_of(wid) == "first"
        assert second.status(wid) is ExecutionStatus.WAITING_SIGNAL
        # The refused rival wrote nothing durable: the owner still
        # drives its execution to completion untroubled.
        assert first.signal(wid, "approve") is ExecutionStatus.COMPLETED

    def test_refused_start_leaves_no_execution_behind(self, rt):
        oids = _make_oids(rt, ("order", "audit"))
        board, first, second = self._pair(rt, oids)
        wid = first.start("approval")
        with pytest.raises(AssetError, match="live lease"):
            second.start("approval", wid=wid)
        assert second.executions() == {}
        started = [
            record
            for record in workflow_records(
                second.storage.log.records(), wid=wid
            )
            if record.kind == STARTED
        ]
        assert len(started) == 1  # the owner's
        assert board.owner_of(wid) == "first"

    def test_lapsed_lease_is_taken_over(self, rt):
        oids = _make_oids(rt, ("order", "audit"))
        board, first, second = self._pair(rt, oids, lease=16)
        wid = first.start("approval")
        second.recover()
        # The first engine goes quiet; its lease runs out.
        rt.manager.clock.tick(17)
        assert not board.live(wid)
        status = second.signal(wid, "approve")
        assert status is ExecutionStatus.COMPLETED
        assert board.owner_of(wid) == "second"
        assert _value(second.runtime, oids["audit"]) == 1
        # Exactly one confirm attempt across both engines: the takeover
        # resumed the run, it did not re-execute it.
        attempts = [
            record
            for record in workflow_records(
                second.storage.log.records(), wid=wid
            )
            if record.kind == STEP_ATTEMPT
        ]
        assert len(attempts) == 2  # place (first) + confirm (second)

    def test_stale_owner_adopts_durable_truth(self, rt):
        oids = _make_oids(rt, ("order", "audit"))
        board, first, second = self._pair(rt, oids, lease=16)
        wid = first.start("approval")
        second.recover()
        rt.manager.clock.tick(17)
        assert second.signal(wid, "approve") is ExecutionStatus.COMPLETED
        # A terminal run's lease is released, so the original owner's
        # late signal is not refused — but its claim notices the board
        # changed hands and re-folds the durable log first: the stale
        # parked image is replaced by the finished one, and the signal
        # lands on a terminal run and changes nothing.
        assert first.status(wid) is ExecutionStatus.WAITING_SIGNAL  # stale
        assert first.signal(wid, "approve") is ExecutionStatus.COMPLETED
        assert first.status(wid) is ExecutionStatus.COMPLETED
        finishes = [
            record
            for record in workflow_records(
                first.storage.log.records(), wid=wid
            )
            if record.kind == FINISHED
        ]
        assert len(finishes) == 1

    def test_owner_heartbeat_keeps_rivals_out(self, rt):
        oids = _make_oids(rt, ("order", "audit"))
        board, first, second = self._pair(rt, oids, lease=16)
        wid = first.start("approval")
        second.recover()
        for _ in range(4):
            rt.manager.clock.tick(10)
            # Durable progress (here: a non-resuming signal delivery)
            # doubles as the heartbeat, so the lease never lapses even
            # though far more than one budget of ticks has passed.
            first.signal(wid, "noise", resume=False)
            assert board.live(wid)
            with pytest.raises(AssetError, match="live lease"):
                second.cancel(wid)
        assert first.signal(wid, "approve") is ExecutionStatus.COMPLETED


class TestCompensationRetryBudget:
    """A durable execution has durably decided to go backward, so an
    exhausted retry budget on a compensation is spent again with a fresh
    attempt — never left half-compensated (an anonymous execution
    propagates instead: ``test_engine.py``)."""

    def test_exhausted_budget_on_a_compensation_is_reissued(self, rt):
        from repro.common.errors import TransientIOError
        from repro.resilience import RetryPolicy
        from repro.workflow.records import COMP_ATTEMPT

        oids = _make_oids(rt, ("order", "audit"))
        registry = DefinitionRegistry()
        registry.register(
            _approval_definition("approval", oids, timeout=10)
        )
        engine = _checked(
            rt, registry,
            retry=RetryPolicy.zero_budget(clock=rt.manager.clock),
        )
        wid = engine.start("approval")
        assert engine.status(wid) is ExecutionStatus.WAITING_SIGNAL
        real_commit = rt.commit
        glitches = []

        def glitch_once(tid):
            if not glitches:
                # The device fails the commit and the transaction dies
                # with it (its locks are released for the reissue).
                glitches.append(tid)
                rt.abort(tid)
                raise TransientIOError("compensation commit glitches")
            return real_commit(tid)

        rt.commit = glitch_once
        assert engine.expire_wait(wid) is ExecutionStatus.COMPENSATED
        rt.commit = real_commit
        assert _value(rt, oids["order"]) == 0  # place was compensated
        attempts = [
            record for record in workflow_records(rt.manager.storage.log.records())
            if record.kind == COMP_ATTEMPT
        ]
        assert len(attempts) == 2  # the glitched attempt, then the reissue
