"""EX9: the appendix X_conference program, literal and declarative."""

import pytest

from repro.runtime.coop import CooperativeRuntime
from repro.runtime.threaded import ThreadedRuntime
from repro.workflow.engine import TaskStatus, WorkflowEngine
from repro.workflow.travel import (
    AIRLINES,
    TravelAgency,
    build_x_conference_spec,
    x_conference,
)


def fresh(availability=None, seed=11):
    rt = CooperativeRuntime(seed=seed)
    return rt, TravelAgency(rt, availability=availability)


class TestLiteralProgram:
    def test_happy_path_books_delta(self):
        rt, agency = fresh()
        assert x_conference(rt, agency) == 1
        assert agency.availability("Delta") == 4
        assert agency.availability("United") == 5  # untouched
        assert agency.availability("Equator") == 4

    def test_airline_preference_order(self):
        rt, agency = fresh({"Delta": 0})
        assert x_conference(rt, agency) == 1
        assert agency.availability("United") == 4

        rt, agency = fresh({"Delta": 0, "United": 0})
        assert x_conference(rt, agency) == 1
        assert agency.availability("American") == 4

    def test_no_flight_fails_activity(self):
        rt, agency = fresh({a: 0 for a in AIRLINES})
        assert x_conference(rt, agency) == 0
        assert agency.availability("Equator") == 5  # hotel never tried

    def test_no_hotel_compensates_flight(self):
        rt, agency = fresh({"Equator": 0})
        assert x_conference(rt, agency) == 0
        assert agency.availability("Delta") == 5  # cancelled
        assert agency.bookings("Delta") == []

    def test_exactly_one_car_wins_race(self):
        rt, agency = fresh()
        assert x_conference(rt, agency) == 1
        booked = (5 - agency.availability("National")) + (
            5 - agency.availability("Avis")
        )
        assert booked == 1

    def test_no_cars_still_succeeds(self):
        """'If a car cannot be rented, the trip can still proceed.'"""
        rt, agency = fresh({"National": 0, "Avis": 0})
        assert x_conference(rt, agency) == 1

    def test_inventory_exhaustion_over_repeated_trips(self):
        rt, agency = fresh({"Delta": 1, "United": 1, "American": 1})
        assert x_conference(rt, agency) == 1
        assert x_conference(rt, agency) == 1
        assert x_conference(rt, agency) == 1
        assert x_conference(rt, agency) == 0  # all airlines sold out

    def test_booking_records_dates(self):
        rt, agency = fresh()
        x_conference(rt, agency, d1="7/1/1994", d2="7/4/1994")
        assert agency.bookings("Delta") == [["7/1/1994", "7/4/1994"]]


class TestDeclarativeSpec:
    def test_engine_matches_literal_semantics(self):
        rt, agency = fresh({"Delta": 0})
        result = WorkflowEngine(rt).execute(build_x_conference_spec(agency))
        assert result.success
        assert result.steps["flight"].alt == "United"
        assert result.steps["hotel"].status is TaskStatus.COMMITTED
        assert result.steps["car"].status is TaskStatus.COMMITTED

    def test_engine_compensates_flight_on_hotel_failure(self):
        rt, agency = fresh({"Equator": 0})
        result = WorkflowEngine(rt).execute(build_x_conference_spec(agency))
        assert not result.success
        assert result.status_of("flight") is TaskStatus.COMPENSATED
        assert agency.availability("Delta") == 5

    def test_engine_car_failure_is_optional(self):
        rt, agency = fresh({"National": 0, "Avis": 0})
        result = WorkflowEngine(rt).execute(build_x_conference_spec(agency))
        assert result.success
        assert result.status_of("car") is TaskStatus.FAILED


class TestOnThreadedRuntime:
    def test_literal_program_runs_on_threads(self):
        rt = ThreadedRuntime(watchdog_interval=0.01, poll_timeout=0.005)
        try:
            agency = TravelAgency(rt, availability={"Delta": 1})
            assert x_conference(rt, agency) == 1
            assert agency.availability("Delta") == 0
        finally:
            rt.close()
