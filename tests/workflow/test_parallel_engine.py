"""The parallel workflow engine: overlapping independent tasks."""

import pytest

from tests.conftest import incrementer, make_counters, read_counter

from repro.acta.history import HistoryRecorder
from repro.common.codec import decode_int, encode_int
from repro.common.events import EventKind
from repro.common.ids import Tid
from repro.workflow.engine import TaskStatus, WorkflowEngine
from repro.workflow.spec import WorkflowSpec
from repro.workflow.travel import TravelAgency, build_x_conference_spec


@pytest.fixture
def engine(rt):
    return WorkflowEngine(rt)


class TestEquivalence:
    def test_same_outcomes_as_sequential(self, rt):
        oids = make_counters(rt, 4)

        def build():
            spec = WorkflowSpec("par")
            spec.task("a").alternative(incrementer(oids[0]), label="a0")
            spec.task("b").alternative(incrementer(oids[1], fail=True))
            spec.task("b2", depends_on=("a",)).alternative(
                incrementer(oids[2])
            )
            return spec

        # "b" is required and fails: both engines must fail the workflow.
        sequential = WorkflowEngine(rt).execute(build())
        parallel = WorkflowEngine(rt).execute(build(), parallel=True)
        assert not sequential.success and not parallel.success

    def test_travel_spec_runs_in_parallel_mode(self):
        from repro.runtime.coop import CooperativeRuntime

        rt = CooperativeRuntime(seed=10)
        agency = TravelAgency(rt, availability={"Delta": 1})
        result = WorkflowEngine(rt).execute(
            build_x_conference_spec(agency), parallel=True
        )
        assert result.success
        assert agency.availability("Delta") == 0
        cars = (5 - agency.availability("National")) + (
            5 - agency.availability("Avis")
        )
        assert cars == 1


class TestOverlap:
    def test_independent_tasks_interleave(self, rt):
        """With parallel=True, two independent tasks' transactions are
        both live before either commits (verified from the history)."""
        recorder = HistoryRecorder(rt.manager)
        oids = make_counters(rt, 2)

        def slow(oid):
            def body(tx):
                for __ in range(3):
                    value = decode_int((yield tx.read(oid)))
                    yield tx.write(oid, encode_int(value + 1))

            return body

        spec = WorkflowSpec("overlap")
        spec.task("left").alternative(slow(oids[0]))
        spec.task("right").alternative(slow(oids[1]))
        result = WorkflowEngine(rt).execute(spec, parallel=True)
        assert result.success

        begins = {}
        commits = {}
        for event in recorder.events:
            if event.kind is EventKind.BEGIN:
                begins[event.tid] = event.tick
            elif event.kind is EventKind.COMMITTED:
                commits[event.tid] = event.tick
        left = Tid(result.steps["left"].tid_value)
        right = Tid(result.steps["right"].tid_value)
        # Both began before either committed: genuine overlap.
        assert begins[left] < commits[right]
        assert begins[right] < commits[left]

    def test_sequential_engine_does_not_overlap(self, rt):
        recorder = HistoryRecorder(rt.manager)
        oids = make_counters(rt, 2)
        spec = WorkflowSpec("seq")
        spec.task("left").alternative(incrementer(oids[0]))
        spec.task("right").alternative(incrementer(oids[1]))
        result = WorkflowEngine(rt).execute(spec)
        assert result.success
        begins = {}
        commits = {}
        for event in recorder.events:
            if event.kind is EventKind.BEGIN:
                begins[event.tid] = event.tick
            elif event.kind is EventKind.COMMITTED:
                commits[event.tid] = event.tick
        left = Tid(result.steps["left"].tid_value)
        right = Tid(result.steps["right"].tid_value)
        assert commits[left] < begins[right]


class TestParallelSemantics:
    def test_dependencies_still_ordered(self, rt, engine):
        order = []
        oids = make_counters(rt, 2)

        def tracer(name, oid):
            def body(tx):
                order.append(name)
                value = decode_int((yield tx.read(oid)))
                yield tx.write(oid, encode_int(value + 1))

            return body

        spec = WorkflowSpec("dep")
        spec.task("first").alternative(tracer("first", oids[0]))
        spec.task("second", depends_on=("first",)).alternative(
            tracer("second", oids[1])
        )
        result = engine.execute(spec, parallel=True)
        assert result.success
        assert order == ["first", "second"]

    def test_alternatives_fall_back(self, rt, engine):
        oids = make_counters(rt, 2)
        spec = WorkflowSpec("alts")
        task = spec.task("choice")
        task.alternative(incrementer(oids[0], fail=True), label="bad")
        task.alternative(incrementer(oids[1]), label="good")
        result = engine.execute(spec, parallel=True)
        assert result.success
        assert result.steps["choice"].alt == "good"

    def test_race_one_winner(self, rt, engine):
        oids = make_counters(rt, 3)
        spec = WorkflowSpec("race")
        task = spec.task("r", race=True)
        for index, oid in enumerate(oids):
            task.alternative(incrementer(oid), label=f"alt{index}")
        result = engine.execute(spec, parallel=True)
        assert result.success
        assert sum(read_counter(rt, oid) for oid in oids) == 1

    def test_required_failure_compensates(self, rt, engine):
        oids = make_counters(rt, 2)
        spec = WorkflowSpec("comp")
        spec.task("keep").alternative(incrementer(oids[0])).compensate_with(
            incrementer(oids[0], delta=-1)
        )
        spec.task("die", depends_on=("keep",)).alternative(
            incrementer(oids[1], fail=True)
        )
        result = engine.execute(spec, parallel=True)
        assert not result.success
        assert result.status_of("keep") is TaskStatus.COMPENSATED
        assert read_counter(rt, oids[0]) == 0

    def test_optional_failure_tolerated(self, rt, engine):
        oids = make_counters(rt, 2)
        spec = WorkflowSpec("opt")
        spec.task("maybe", optional=True).alternative(
            incrementer(oids[0], fail=True)
        )
        spec.task("must").alternative(incrementer(oids[1]))
        result = engine.execute(spec, parallel=True)
        assert result.success
        assert result.status_of("maybe") is TaskStatus.FAILED
