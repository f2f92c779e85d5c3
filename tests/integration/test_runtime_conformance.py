"""Runtime conformance: every model behaves identically on every runtime.

The model library only uses the paper-style driver API, so each
translation scheme must produce the same outcomes whether the programs
run under the deterministic scheduler, the deterministic sharded
engine, or real threads over a flat or a 4-shard store.  Runtime
construction and the shared counter helpers live in
:mod:`tests.differential.harness`, so the same battery is reusable by
the differential suite.
"""

import pytest

from repro import RunResult
from repro.models import (
    Saga,
    require_subtransaction,
    run_atomic,
    run_contingent,
    run_distributed,
    run_saga,
)
from tests.differential.harness import (
    RUNTIME_NAMES,
    incrementer,
    make_counters,
    make_runtime,
    read_counter,
)


@pytest.fixture(params=RUNTIME_NAMES)
def rt(request):
    runtime, closer = make_runtime(request.param, seed=77)
    yield runtime
    closer()


class TestDriverApiConformance:
    def test_run_returns_a_run_result_on_every_runtime(self, rt):
        [oid] = make_counters(rt, 1)
        ok = rt.run(incrementer(oid))
        assert type(ok) is RunResult
        assert ok.committed and ok.value == 1 and ok.tid
        assert rt.result_of(ok.tid) == 1
        failed = rt.run(incrementer(oid, fail=True))
        assert type(failed) is RunResult
        assert not failed.committed and failed.tid


class TestModelConformance:
    def test_atomic(self, rt):
        [oid] = make_counters(rt, 1)
        assert run_atomic(rt, incrementer(oid)).committed
        assert not run_atomic(rt, incrementer(oid, fail=True)).committed
        assert read_counter(rt, oid) == 1

    def test_distributed(self, rt):
        oids = make_counters(rt, 2)
        assert run_distributed(
            rt, [incrementer(oid) for oid in oids]
        ).committed
        assert not run_distributed(
            rt, [incrementer(oids[0]), incrementer(oids[1], fail=True)]
        ).committed
        assert [read_counter(rt, oid) for oid in oids] == [1, 1]

    def test_contingent(self, rt):
        oids = make_counters(rt, 2)
        result = run_contingent(
            rt, [incrementer(oids[0], fail=True), incrementer(oids[1])]
        )
        assert result.committed and result.chosen_index == 1
        assert [read_counter(rt, oid) for oid in oids] == [0, 1]

    def test_saga(self, rt):
        oids = make_counters(rt, 2)
        saga = Saga()
        saga.step(
            incrementer(oids[0]),
            incrementer(oids[0]),  # "compensation": bumps again (visible)
            name="t1",
        )
        saga.step(incrementer(oids[1], fail=True), None, name="t2")
        result = run_saga(rt, saga)
        assert not result.committed
        assert result.execution_order == ["t1", "ct1"]
        assert read_counter(rt, oids[0]) == 2  # step + compensation

    def test_nested(self, rt):
        oids = make_counters(rt, 2)

        def parent(tx):
            first = yield from require_subtransaction(
                tx, incrementer(oids[0])
            )
            second = yield from require_subtransaction(
                tx, incrementer(oids[1])
            )
            return (first.value, second.value)

        result = run_atomic(rt, parent)
        assert result.committed
        assert result.value == (1, 1)

        def failing_parent(tx):
            yield from require_subtransaction(tx, incrementer(oids[0]))
            yield from require_subtransaction(
                tx, incrementer(oids[1], fail=True)
            )

        result = run_atomic(rt, failing_parent)
        assert not result.committed
        assert [read_counter(rt, oid) for oid in oids] == [1, 1]


class TestTravelWorkflowConformance:
    """The appendix travel workflow must end identically on every runtime.

    Happy path: flight (contingent over three airlines), hotel
    (required), car (optional race) — all COMMITTED, exactly one booking
    per resource class.  Sold-out hotel: the saga unwinds — the flight
    is compensated and the inventory is untouched — on every runtime.
    """

    def _booked(self, agency, names):
        return sum(len(agency.bookings(name)) for name in names)

    def test_travel_workflow_terminal_outcomes_match(self, rt):
        from repro.workflow import TravelAgency, WorkflowEngine
        from repro.workflow.engine import TaskStatus
        from repro.workflow.travel import AIRLINES, CAR_COMPANIES
        from repro.workflow.travel import build_x_conference_spec

        agency = TravelAgency(rt)
        engine = WorkflowEngine(rt)
        result = engine.execute(build_x_conference_spec(agency))
        assert result.success
        assert result.status_of("flight") is TaskStatus.COMMITTED
        assert result.status_of("hotel") is TaskStatus.COMMITTED
        assert result.status_of("car") is TaskStatus.COMMITTED
        assert self._booked(agency, AIRLINES) == 1
        assert self._booked(agency, ["Equator"]) == 1
        assert self._booked(agency, CAR_COMPANIES) == 1

    def test_travel_workflow_sellout_compensates_everywhere(self, rt):
        from repro.workflow import TravelAgency, WorkflowEngine
        from repro.workflow.engine import TaskStatus
        from repro.workflow.travel import AIRLINES, CAR_COMPANIES
        from repro.workflow.travel import build_x_conference_spec

        agency = TravelAgency(rt, availability={"Equator": 0})
        engine = WorkflowEngine(rt)
        result = engine.execute(build_x_conference_spec(agency))
        assert not result.success
        assert result.status_of("hotel") is TaskStatus.FAILED
        assert result.status_of("flight") is TaskStatus.COMPENSATED
        assert self._booked(
            agency, list(AIRLINES) + ["Equator"] + list(CAR_COMPANIES)
        ) == 0
