"""The workflow engine: alternatives, races, compensation, dependencies."""

import pytest

from tests.conftest import (
    incrementer,
    make_counters,
    read_counter,
    workflow_records,
)

from repro.workflow.definition import DefinitionRegistry, WorkflowDefinition
from repro.workflow.engine import TaskStatus, WorkflowEngine
from repro.workflow.execution import ExecutionStatus, fold_all
from repro.workflow.spec import WorkflowSpec


def _logged(rt):
    return list(workflow_records(rt.manager.storage.log.records()))


@pytest.fixture
def engine(rt):
    return WorkflowEngine(rt)


class TestSequentialAlternatives:
    def test_preference_order(self, rt, engine):
        oids = make_counters(rt, 2)
        spec = WorkflowSpec("prefs")
        task = spec.task("choice")
        task.alternative(incrementer(oids[0], fail=True), label="first")
        task.alternative(incrementer(oids[1]), label="second")
        result = engine.execute(spec)
        assert result.success
        assert result.steps["choice"].alt == "second"
        assert read_counter(rt, oids[1]) == 1

    def test_value_captured(self, rt, engine):
        [oid] = make_counters(rt, 1)
        spec = WorkflowSpec()
        spec.task("inc").alternative(incrementer(oid, delta=7))
        result = engine.execute(spec)
        assert result.steps["inc"].value == 7


class TestOptionalAndDependencies:
    def _spec(self, rt, first_fails, optional_second):
        oids = make_counters(rt, 3)
        spec = WorkflowSpec()
        spec.task("first").alternative(
            incrementer(oids[0], fail=first_fails)
        )
        spec.task(
            "second", optional=optional_second, depends_on=("first",)
        ).alternative(incrementer(oids[1]))
        spec.task("third", depends_on=("first",)).alternative(
            incrementer(oids[2])
        )
        return spec, oids

    def test_required_failure_fails_workflow(self, rt, engine):
        spec, oids = self._spec(rt, first_fails=True, optional_second=False)
        result = engine.execute(spec)
        assert not result.success
        assert result.status_of("first") is TaskStatus.FAILED

    def test_dependent_of_failed_task_skipped(self, rt, engine):
        spec, oids = self._spec(rt, first_fails=True, optional_second=True)
        result = engine.execute(spec)
        assert not result.success  # "third" is required and skipped
        assert result.status_of("second") is TaskStatus.SKIPPED
        assert read_counter(rt, oids[1]) == 0

    def test_optional_failure_does_not_fail_workflow(self, rt, engine):
        oids = make_counters(rt, 2)
        spec = WorkflowSpec()
        spec.task("maybe", optional=True).alternative(
            incrementer(oids[0], fail=True)
        )
        spec.task("must").alternative(incrementer(oids[1]))
        result = engine.execute(spec)
        assert result.success
        assert result.status_of("maybe") is TaskStatus.FAILED
        assert result.status_of("must") is TaskStatus.COMMITTED


class TestCompensation:
    def test_reverse_order_compensation(self, rt, engine):
        oids = make_counters(rt, 3)
        spec = WorkflowSpec()
        spec.task("a").alternative(incrementer(oids[0])).compensate_with(
            incrementer(oids[0], delta=-1)
        )
        spec.task("b").alternative(incrementer(oids[1])).compensate_with(
            incrementer(oids[1], delta=-1)
        )
        spec.task("c").alternative(incrementer(oids[2], fail=True))
        result = engine.execute(spec)
        assert not result.success
        assert result.compensated_steps() == ["b", "a"]
        assert result.status_of("a") is TaskStatus.COMPENSATED
        assert result.status_of("b") is TaskStatus.COMPENSATED
        assert all(read_counter(rt, oid) == 0 for oid in oids)

    def test_task_without_compensation_left_committed(self, rt, engine):
        oids = make_counters(rt, 2)
        spec = WorkflowSpec()
        spec.task("keep").alternative(incrementer(oids[0]))  # no comp
        spec.task("fail").alternative(incrementer(oids[1], fail=True))
        result = engine.execute(spec)
        assert not result.success
        assert result.status_of("keep") is TaskStatus.COMMITTED
        assert read_counter(rt, oids[0]) == 1


class TestRace:
    def test_winner_commits_losers_abort(self, rt, engine):
        oids = make_counters(rt, 3)
        spec = WorkflowSpec()
        task = spec.task("race", race=True)
        for index, oid in enumerate(oids):
            task.alternative(incrementer(oid), label=f"r{index}")
        result = engine.execute(spec)
        assert result.success
        total = sum(read_counter(rt, oid) for oid in oids)
        assert total == 1  # exactly one racer's effect persists

    def test_race_with_failing_entrants(self, rt, engine):
        oids = make_counters(rt, 2)
        spec = WorkflowSpec()
        task = spec.task("race", race=True)
        task.alternative(incrementer(oids[0], fail=True), label="bad")
        task.alternative(incrementer(oids[1]), label="good")
        result = engine.execute(spec)
        assert result.success
        assert result.steps["race"].alt == "good"

    def test_race_all_fail(self, rt, engine):
        oids = make_counters(rt, 2)
        spec = WorkflowSpec()
        task = spec.task("race", race=True)
        for oid in oids:
            task.alternative(incrementer(oid, fail=True))
        result = engine.execute(spec)
        assert not result.success
        assert result.status_of("race") is TaskStatus.FAILED


class TestRaceLoserLeak:
    """Regression: a loser whose abort keeps failing must not leak.

    The engine used to call ``runtime.abort(loser)`` bare; a transient
    device fault left the loser holding its locks forever.  Now the
    abort runs under the engine's retry policy and an exhausted budget
    hands the loser to the watchdog as an already-expired orphan.
    """

    def _race_spec(self, rt):
        oids = make_counters(rt, 3)
        spec = WorkflowSpec()
        task = spec.task("race", race=True)
        for index, oid in enumerate(oids):
            task.alternative(incrementer(oid), label=f"r{index}")
        return spec

    def test_failing_abort_records_orphan(self, rt, monkeypatch):
        from repro.common.errors import TransientIOError

        engine = WorkflowEngine(rt)
        spec = self._race_spec(rt)

        def failing_abort(tid):
            raise TransientIOError("abort device glitch")

        monkeypatch.setattr(rt, "abort", failing_abort)
        result = engine.execute(spec)
        assert result.success  # the winner still commits
        assert engine.orphaned  # ... and the losers are accounted for

    def test_orphans_handed_to_watchdog(self, rt, monkeypatch):
        from repro.common.errors import TransientIOError
        from repro.resilience.deadlines import DeadlineTable
        from repro.resilience.watchdog import Watchdog

        table = DeadlineTable(rt.manager.clock)
        watchdog = Watchdog(rt.manager, table)
        engine = WorkflowEngine(rt, watchdog=watchdog)
        spec = self._race_spec(rt)

        def failing_abort(tid):
            raise TransientIOError("abort device glitch")

        monkeypatch.setattr(rt, "abort", failing_abort)
        result = engine.execute(spec)
        assert result.success
        assert engine.orphaned
        # Every orphan sits in the watchdog's table, already expired,
        # so the next scan reaps it instead of leaking its locks.
        for tid in engine.orphaned:
            deadline = table.deadline_of(tid)
            assert deadline is not None
            assert deadline <= rt.manager.clock.peek()

    def test_retry_rescues_a_flaky_abort(self, rt):
        from repro.common.errors import TransientIOError
        from repro.resilience import RetryPolicy

        engine = WorkflowEngine(
            rt, retry=RetryPolicy(max_attempts=3, clock=rt.manager.clock)
        )
        spec = self._race_spec(rt)
        real_abort = rt.abort
        calls = {"n": 0}

        def flaky_abort(tid):
            calls["n"] += 1
            if calls["n"] == 1:
                raise TransientIOError("first abort attempt glitches")
            return real_abort(tid)

        rt.abort = flaky_abort
        result = engine.execute(spec)
        assert result.success
        assert not engine.orphaned  # the retry absorbed the glitch


class TestAnonymousRunsAreVolatile:
    """Durability is derived: ``execute`` runs a spec no restart could
    look the bodies up for, so it never touches the log."""

    def test_execute_neither_reads_nor_writes_the_log(self, rt, monkeypatch):
        oids = make_counters(rt, 2)
        log = rt.manager.storage.log
        plain_records, reads = log.records, []

        def counting_records(*args, **kwargs):
            reads.append(args)
            return plain_records(*args, **kwargs)

        monkeypatch.setattr(log, "records", counting_records)
        engine = WorkflowEngine(rt)
        seen = []
        engine.on_record = lambda wid, kind, fields: seen.append(kind)
        spec = WorkflowSpec()
        spec.task("a").alternative(incrementer(oids[0]), label="only")
        spec.task("b", depends_on=("a",)).alternative(incrementer(oids[1]))
        result = engine.execute(spec)
        assert result.success and result.status is ExecutionStatus.COMPLETED
        assert reads == []
        monkeypatch.undo()
        assert _logged(rt) == []
        assert engine.executions() == {}  # returned, not retained
        assert seen == [
            "started", "step_attempt", "step_attempt", "finished",
        ]
        assert [row["kind"] for row in engine.timeline] == seen
        assert engine.stats["steps_committed"] == 2


class TestReconciledCorners:
    """Where the two old engines disagreed, the rule is stated once."""

    @pytest.mark.parametrize("mode", ["execute", "parallel", "start"])
    def test_required_step_behind_an_uncommitted_dependency_fails(
        self, rt, mode
    ):
        oids = make_counters(rt, 3)
        spec = WorkflowSpec("corner")
        spec.task("maybe", optional=True).alternative(
            incrementer(oids[0], fail=True)
        )
        spec.task("also", optional=True, depends_on=("maybe",)).alternative(
            incrementer(oids[1])
        )
        spec.task("must", depends_on=("maybe",)).alternative(
            incrementer(oids[2])
        )
        if mode == "start":
            registry = DefinitionRegistry()
            registry.register(WorkflowDefinition("corner", spec))
            engine = WorkflowEngine(rt, registry)
            result = engine.execution(engine.start("corner"))
        else:
            result = WorkflowEngine(rt).execute(
                spec, parallel=mode == "parallel"
            )
        assert bool(_logged(rt)) is (mode == "start")
        assert not result.success
        assert result.status_of("maybe") is TaskStatus.FAILED
        assert result.status_of("also") is TaskStatus.SKIPPED  # optional
        # Required: FAILED, and as a record — a resume must never walk
        # past it (the old in-memory driver said SKIPPED).
        assert result.steps["must"].status is TaskStatus.FAILED
        assert read_counter(rt, oids[2]) == 0

    def test_never_reached_is_none_while_running_skipped_once_terminal(
        self, rt
    ):
        oids = make_counters(rt, 2)
        spec = WorkflowSpec("reach")
        spec.task("first").alternative(incrementer(oids[0]))
        spec.task("later", depends_on=("first",)).alternative(
            incrementer(oids[1])
        )
        registry = DefinitionRegistry()
        registry.register(
            WorkflowDefinition("reach", spec).wait_for("later", "go")
        )
        engine = WorkflowEngine(rt, registry)
        wid = engine.start("reach")

        def images():
            """The live image, and the log's fold of the same run."""
            records = list(rt.manager.storage.log.records())
            live = engine.execution(wid)
            winners = {live.steps["first"].tid_value}
            return live, fold_all(records, winners)[wid]

        for image in images():  # parked ahead of "later"
            assert image.status is ExecutionStatus.WAITING_SIGNAL
            assert image.status_of("later") is None
        engine.cancel(wid)
        for image in images():  # terminal: it never will be reached
            assert image.status is ExecutionStatus.CANCELLED
            assert image.status_of("later") is TaskStatus.SKIPPED
            assert "later" not in image.steps  # ... and it took no record


class TestCompensationRetryBudget:
    """An exhausted retry budget on a *compensation* is read off the
    record.  An anonymous execution has nothing durable to fall back on
    and propagates it (a durable one re-issues: ``test_durable.py``)."""

    def test_exhausted_budget_on_a_compensation_propagates(self, rt):
        from repro.common.errors import RetryExhausted, TransientIOError
        from repro.resilience import RetryPolicy

        oids = make_counters(rt, 2)
        spec = WorkflowSpec()
        spec.task("a").alternative(incrementer(oids[0])).compensate_with(
            incrementer(oids[0], delta=-1)
        )
        spec.task("b").alternative(incrementer(oids[1], fail=True))
        engine = WorkflowEngine(
            rt, retry=RetryPolicy.zero_budget(clock=rt.manager.clock)
        )
        real_commit = rt.commit
        commits = []

        def glitch_on_the_compensation(tid):
            commits.append(tid)
            if len(commits) == 3:  # a, b (aborts), then a's compensation
                raise TransientIOError("compensation commit glitches")
            return real_commit(tid)

        rt.commit = glitch_on_the_compensation
        with pytest.raises(RetryExhausted):
            engine.execute(spec)
        assert len(commits) == 3  # no second compensation attempt
