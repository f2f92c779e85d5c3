"""The workflow engine: alternatives, races, compensation, dependencies."""

import pytest

from tests.conftest import incrementer, make_counters, read_counter

from repro.workflow.engine import TaskStatus, WorkflowEngine
from repro.workflow.spec import WorkflowSpec


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
        assert result.outcomes["choice"].label == "second"
        assert read_counter(rt, oids[1]) == 1

    def test_value_captured(self, rt, engine):
        [oid] = make_counters(rt, 1)
        spec = WorkflowSpec()
        spec.task("inc").alternative(incrementer(oid, delta=7))
        result = engine.execute(spec)
        assert result.outcomes["inc"].value == 7


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
        assert result.compensation_order == ["b", "a"]
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
        assert result.outcomes["race"].label == "good"

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


class TestCompensationRetryBudget:
    """The one place the two engines' shared step strategies differ: an
    exhausted retry budget on a *compensation*.  The in-memory engine
    has nothing durable to fall back on and propagates it (the durable
    engine's side is pinned in ``test_durable.py``)."""

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
