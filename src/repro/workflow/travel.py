"""The appendix travel scenario.

Person X travels to a conference (June 11-14, 1994): a flight on Delta,
United, or American *in that order*; a room at hotel Equator (required —
no hotel means the already-made flight reservation must be compensated);
and optionally a car from National or Avis, whichever reservation finishes
first.

Inventory lives in persistent objects (one per airline / hotel / rental
company) holding an availability counter and a booking list, so every
reservation is a real read-modify-write transaction that aborts when sold
out.  :func:`x_conference` transcribes the appendix program literally
against the driver API; :func:`build_x_conference_spec` expresses the same
activity declaratively for the workflow engine — the paper's "it is
possible to design a language to specify workflows" direction.
"""

from __future__ import annotations

from repro.common.codec import decode_json, encode_json
from repro.workflow.spec import WorkflowSpec

AIRLINES = ("Delta", "United", "American")
HOTELS = ("Equator",)
CAR_COMPANIES = ("National", "Avis")

JUNE_11 = "6/11/1994"
JUNE_14 = "6/14/1994"


# ---------------------------------------------------------------------------
# reservation transaction bodies (the appendix's assumed functions)
# ---------------------------------------------------------------------------


def make_reservation(tx, oid, d1, d2):
    """Reserve one unit of the resource in ``oid`` for the date range.

    Aborts when nothing is available, as the paper's reservation
    subtransactions do.  Returns the booking entry.
    """
    record = decode_json((yield tx.read(oid)))
    if record["available"] <= 0:
        yield tx.abort()
    booking = [d1, d2]
    record["available"] -= 1
    record["bookings"].append(booking)
    yield tx.write(oid, encode_json(record))
    return booking


def cancel_reservation(tx, oid, d1, d2):
    """Compensate a reservation: remove one matching booking.

    Idempotent against double cancellation: with no matching booking it
    commits without effect (compensations must eventually commit).
    """
    record = decode_json((yield tx.read(oid)))
    booking = [d1, d2]
    if booking in record["bookings"]:
        record["bookings"].remove(booking)
        record["available"] += 1
        yield tx.write(oid, encode_json(record))
    return record["available"]


# The appendix names; all are the same shape over different inventories.
flight_reservation = make_reservation
hotel_reservation = make_reservation
car_reservation = make_reservation
cancel_flight_reservation = cancel_reservation
cancel_hotel_reservation = cancel_reservation


class TravelAgency:
    """Owns the inventory objects the reservation transactions act on."""

    def __init__(self, runtime, availability=None):
        """Create inventories.  ``availability`` maps resource name (e.g.
        ``"Delta"``, ``"Equator"``, ``"Avis"``) to seat/room/car counts;
        unnamed resources default to 5 units."""
        self.runtime = runtime
        availability = dict(availability or {})
        names = list(AIRLINES) + list(HOTELS) + list(CAR_COMPANIES)

        def setup(tx):
            oids = {}
            for name in names:
                record = {
                    "name": name,
                    "available": availability.get(name, 5),
                    "bookings": [],
                }
                oids[name] = yield tx.create(encode_json(record), name=name)
            return oids

        created = runtime.run(setup)
        self.setup_tid = created.tid
        self.oids = oids = created.value
        self.flights = {name: oids[name] for name in AIRLINES}
        self.hotels = {name: oids[name] for name in HOTELS}
        self.cars = {name: oids[name] for name in CAR_COMPANIES}

    def availability(self, name):
        """Current availability of a resource (via a read transaction)."""

        def body(tx):
            record = decode_json((yield tx.read(self.oids[name])))
            return record["available"]

        return self.runtime.run(body).value

    def bookings(self, name):
        """Current bookings of a resource (via a read transaction)."""

        def body(tx):
            record = decode_json((yield tx.read(self.oids[name])))
            return record["bookings"]

        return self.runtime.run(body).value


def x_conference(runtime, agency, d1=JUNE_11, d2=JUNE_14):
    """The appendix program, transcribed statement for statement.

    Returns 1 when the activity completes (flight + hotel, car optional),
    0 when it fails (no flight, or no hotel — after compensating the
    flight).
    """
    # Flight: Delta, else United, else American — a contingent chain.
    air = None
    for airline in AIRLINES:
        t = runtime.initiate(
            flight_reservation, args=(agency.flights[airline], d1, d2)
        )
        runtime.begin(t)
        if runtime.commit(t):
            air = airline
            break
    if air is None:
        return 0  # Activity failed

    # Hotel Equator is required.
    t4 = runtime.initiate(
        hotel_reservation, args=(agency.hotels["Equator"], d1, d2)
    )
    runtime.begin(t4)
    if not runtime.commit(t4):
        # Compensate for the flight reservation already made; a
        # compensating transaction must be retried until it commits.
        while True:
            t5 = runtime.initiate(
                cancel_flight_reservation, args=(agency.flights[air], d1, d2)
            )
            runtime.begin(t5)
            if runtime.commit(t5):
                break
        return 0

    # Car rental: National raced against Avis; whichever completes first
    # wins, the loser is aborted.  The task is optional either way.
    t5 = runtime.initiate(
        car_reservation, args=(agency.cars["National"], d1, d2)
    )
    runtime.begin(t5)
    t6 = runtime.initiate(car_reservation, args=(agency.cars["Avis"], d1, d2))
    runtime.begin(t6)
    if runtime.wait(t5):
        runtime.abort(t6)
        runtime.commit(t5)
    else:
        runtime.commit(t6)
    return 1  # Activity has completed successfully


def build_x_conference_spec(agency, d1=JUNE_11, d2=JUNE_14):
    """The same activity as a declarative :class:`WorkflowSpec`."""
    spec = WorkflowSpec(name="x_conference")
    flight = spec.task("flight")
    for airline in AIRLINES:
        flight.alternative(
            flight_reservation,
            args=(agency.flights[airline], d1, d2),
            label=airline,
        )
    hotel = spec.task("hotel", depends_on=("flight",))
    hotel.alternative(
        hotel_reservation, args=(agency.hotels["Equator"], d1, d2),
        label="Equator",
    )
    car = spec.task("car", optional=True, race=True, depends_on=("hotel",))
    for company in CAR_COMPANIES:
        car.alternative(
            car_reservation, args=(agency.cars[company], d1, d2),
            label=company,
        )

    def cancel_any_flight(tx, d1=d1, d2=d2):
        for airline in AIRLINES:
            record = decode_json((yield tx.read(agency.flights[airline])))
            if [d1, d2] in record["bookings"]:
                record["bookings"].remove([d1, d2])
                record["available"] += 1
                yield tx.write(agency.flights[airline], encode_json(record))
                return airline
        return None

    flight.compensate_with(cancel_any_flight)
    return spec
