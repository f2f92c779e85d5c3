"""EX9 (appendix) — the X_conference workflow under availability sweeps.

Runs the literal appendix program over inventories of varying scarcity.
Expected shape: success rate tracks min(flight seats across preferred
airlines, hotel rooms); compensation work appears exactly when a flight
was booked but no hotel was available; the car race never books more
than one car.
"""

from conftest import fresh_runtime

from repro.bench.report import print_table
from repro.workflow.engine import WorkflowEngine
from repro.workflow.travel import (
    TravelAgency,
    build_x_conference_spec,
    x_conference,
)


def _campaign(availability, trips=6, seed=21):
    rt = fresh_runtime(seed=seed)
    agency = TravelAgency(rt, availability=dict(availability))
    steps_before = rt.steps
    successes = sum(x_conference(rt, agency) for __ in range(trips))
    return successes, rt.steps - steps_before, agency


def test_bench_workflow_availability_sweep(benchmark):
    rows = []
    scenarios = [
        ("plentiful", {}),
        ("3 flights each", {"Delta": 1, "United": 1, "American": 1}),
        ("2 rooms only", {"Equator": 2}),
        ("no hotel", {"Equator": 0}),
        ("no flights", {"Delta": 0, "United": 0, "American": 0}),
    ]
    for label, availability in scenarios:
        successes, steps, agency = _campaign(availability)
        rows.append([label, successes, 6, steps])
    print_table(
        "EX9: X_conference success rate vs inventory (6 trips attempted)",
        ["scenario", "booked", "attempted", "steps"],
        rows,
    )
    by_label = {row[0]: row[1] for row in rows}
    assert by_label["plentiful"] == 5  # default 5 units of everything
    assert by_label["3 flights each"] == 3
    assert by_label["2 rooms only"] == 2
    assert by_label["no hotel"] == 0
    assert by_label["no flights"] == 0
    benchmark(lambda: _campaign({}, trips=2))


def test_bench_workflow_compensation_accounting(benchmark):
    """When the hotel is the bottleneck, every failed trip must leave the
    airline inventory untouched (compensations ran)."""

    def run():
        successes, steps, agency = _campaign({"Equator": 2}, trips=6)
        return successes, agency

    successes, agency = run()
    flights_used = sum(
        5 - agency.availability(a) for a in ("Delta", "United", "American")
    )
    print_table(
        "EX9b: compensation accounting (2 rooms, 6 trips)",
        ["booked trips", "flights consumed"],
        [[successes, flights_used]],
    )
    assert successes == 2
    assert flights_used == 2  # failed trips gave their seats back
    benchmark(lambda: run()[0])


def test_bench_workflow_engine_vs_literal(benchmark):
    """The declarative engine pays some overhead over the hand-written
    translation; both must agree on outcomes."""

    def literal():
        rt = fresh_runtime(seed=30)
        agency = TravelAgency(rt)
        steps_before = rt.steps
        assert x_conference(rt, agency) == 1
        return rt.steps - steps_before

    def declarative():
        rt = fresh_runtime(seed=30)
        agency = TravelAgency(rt)
        steps_before = rt.steps
        result = WorkflowEngine(rt).execute(build_x_conference_spec(agency))
        assert result.success
        return rt.steps - steps_before

    rows = [
        ["literal appendix program", literal()],
        ["workflow engine", declarative()],
    ]
    print_table("EX9c: literal vs engine steps", ["driver", "steps"], rows)
    benchmark(literal)


def test_bench_parallel_vs_sequential_engine(benchmark):
    """Independent I/O-bound tasks overlap under parallel=True.

    On the threaded runtime with a 10ms "external call" inside each task
    (the reservation systems of the appendix scenario), the sequential
    engine pays the sum of task latencies; the parallel engine pays
    roughly the longest one.
    """
    import time as _time

    from repro.common.codec import decode_int, encode_int
    from repro.runtime.threaded import ThreadedRuntime
    from repro.workflow.spec import WorkflowSpec

    DELAY = 0.01

    def build_spec(oids):
        def slow(oid):
            def body(tx):
                value = decode_int((yield tx.read(oid)))
                _time.sleep(DELAY)  # the external reservation call
                yield tx.write(oid, encode_int(value + 1))

            return body

        spec = WorkflowSpec("fanout")
        for index, oid in enumerate(oids):
            spec.task(f"t{index}").alternative(slow(oid))
        return spec

    def run(parallel, tasks):
        rt = ThreadedRuntime(watchdog_interval=0.05, poll_timeout=0.001)
        try:
            def setup(tx):
                created = []
                for index in range(tasks):
                    created.append(
                        (yield tx.create(encode_int(0), name=f"w{index}"))
                    )
                return created

            oids = rt.run(setup).value
            start = _time.perf_counter()
            result = WorkflowEngine(rt).execute(
                build_spec(oids), parallel=parallel
            )
            elapsed = (_time.perf_counter() - start) * 1e3
            assert result.success
            return elapsed
        finally:
            rt.close()

    rows = []
    for tasks in (2, 4, 8):
        sequential_ms = run(False, tasks)
        parallel_ms = run(True, tasks)
        rows.append(
            [tasks, sequential_ms, parallel_ms,
             sequential_ms / parallel_ms]
        )
    print_table(
        "EX9d: sequential vs parallel engine (10ms I/O per task, threads)",
        ["tasks", "sequential ms", "parallel ms", "speedup"],
        rows,
    )
    # 8 independent tasks: parallel must be clearly faster than serial.
    assert rows[-1][1] > rows[-1][2]
    benchmark(lambda: run(True, 4))
