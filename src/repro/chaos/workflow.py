"""Workflow chaos: crash sweeps over durable workflow executions.

The workflow engine's durability claim is exactly the one this module
attacks: *a site crash at any I/O step of a running workflow loses
nothing* — restart recovery plus :meth:`WorkflowEngine.recover`
resumes the execution from its last durable step and drives it to a
terminal status (completed, or fully compensated), with the standard
oracle battery green at the restart moment.

A :class:`WorkflowScenarioSpec` packages one such workload: a setup
phase that creates the durable inventory, a definition factory (bodies
close over the setup's oids, so the post-restart re-registration binds
to the surviving objects — the durable log stores definition *names*,
never code), a signal script, and a final-state check.  It is also the
harness's *workflow kind* — the ``build`` / ``drive`` / ``judge`` the
one driver in :mod:`repro.chaos.sweep` runs: drive on a
:class:`~repro.chaos.stack.ChaosStack` (flat WAL, or the sharded
segmented WAL when a shard count is given), crash, restart — judged by
``evaluate_recovery`` + ``check_idempotent`` on the flat log — then
rebuild a manager/runtime/engine over the recovered storage,
``recover()``, resume to terminal, and hold the result to the terminal
status, the scenario's checks, fold agreement and no leaked
transactions.  Scenarios register in the shared registry and replay
from the CLI (``python -m repro.chaos.replay workflow_travel_crash``).

:func:`workflow_crash_sweep` is :func:`~repro.chaos.sweep.crash_steps`
over the scenario's probe: ``crash_at=k`` for every numbered I/O step,
with the same coverage accounting as every other sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.chaos.oracles import analyze_log
from repro.chaos.stack import ChaosStack, read_state
from repro.chaos.sweep import (
    ScenarioBrokenError,
    crash_steps,
    judge_recovery,
    probe,
    register,
    sweep,
)
from repro.common.codec import decode_int, decode_json, encode_int, encode_json
from repro.common.errors import AssetError
from repro.workflow.definition import (
    DefinitionRegistry,
    WorkflowDefinition,
)
from repro.workflow.engine import WorkflowEngine
from repro.workflow.execution import ExecutionStatus, fold_all
from repro.workflow.travel import (
    AIRLINES,
    TravelAgency,
    build_x_conference_spec,
)

MAX_DRIVE_ROUNDS = 64


@dataclass
class WorkflowScenarioSpec:
    """One registered workflow chaos workload (and the workflow kind)."""

    name: str
    description: str
    setup: object            # (runtime, ctx) -> [setup tids to acknowledge]
    definition: object       # (ctx) -> WorkflowDefinition
    signals: tuple = ()      # ((signal, payload), ...) scripted deliveries
    expire_waits: bool = False  # fire timers for waits with no scripted signal
    expected_terminal: tuple = (ExecutionStatus.COMPLETED,)
    check: object = None     # (ctx, storage, execution) -> None (asserts)

    kind = "workflow"
    surfaced = ()  # a workflow drive absorbs everything but the crash

    def build(self, plan=None, n_shards=None):
        """A seeded stack: flat WAL, or ``n_shards`` segments."""
        return ChaosStack(plan=plan, seed=0, n_shards=n_shards)

    def _engine(self, runtime, ctx, note_ack=None):
        registry = DefinitionRegistry()
        registry.register(self.definition(ctx))
        return WorkflowEngine(runtime, registry, on_commit=note_ack)

    def drive(self, stack):
        """Setup + start + drive on a live (possibly fault-armed) stack."""
        ctx = stack.ctx
        setup_tids = self.setup(stack.runtime, ctx)
        ctx["setup_done"] = True
        stack.note_ack(*setup_tids)
        engine = self._engine(stack.runtime, ctx, note_ack=stack.note_ack)
        ctx["engine"] = engine
        # Pin the wid *before* start: a crash inside start() must still
        # let the post-restart judge find (and resume) the execution.
        ctx["wid"] = 1
        engine.start(self.name, wid=ctx["wid"])
        drive_to_terminal(engine, ctx["wid"], self)

    def probed(self, verdict):
        """A clean run still restarts at the end (power cut after
        completion) and must recover to its expected terminal status."""
        if not verdict.plan.is_noop:
            return
        self.judge(verdict)
        if not verdict.ok:
            raise ScenarioBrokenError(
                f"{self.name}: clean run failed its own checks:"
                f" {verdict.all_violations}"
            )
        if verdict.status not in self.expected_terminal:
            raise ScenarioBrokenError(
                f"{self.name}: clean run ended {verdict.status}"
            )

    def judge(self, verdict):
        """Restart, judge the recovery, then resume to terminal."""
        stack = verdict.system
        verdict.judgment = "workflow"
        judge_recovery(verdict)
        ctx = stack.ctx
        if not ctx.get("setup_done"):
            # Crashed inside setup: no definition can be rebuilt (its
            # bodies bind the setup's oids) and no execution can exist
            # durably.
            return
        storage = verdict.restarted.storage
        engine = self._engine(stack.runtime_over(storage), ctx)
        # ``on_resume`` (set by an instrument hook) sees the resumed
        # engine before ``recover()`` runs, so an attached observability
        # kit folds the resumed half of the record stream.
        if "on_resume" in ctx:
            ctx["on_resume"](engine)
        verdict.resumed = ctx.get("wid") in engine.recover()
        verdict.status = _judge_final(
            self, ctx, storage, engine, verdict.violations
        )


def drive_to_terminal(engine, wid, spec):
    """Deliver scripted signals / fire timers until the run terminates."""
    pool = list(spec.signals)
    rounds = 0
    while not engine.status(wid).is_terminal:
        rounds += 1
        if rounds > MAX_DRIVE_ROUNDS:
            raise AssetError(
                f"workflow scenario {spec.name!r} made no progress after"
                f" {MAX_DRIVE_ROUNDS} drive rounds"
            )
        execution = engine.execution(wid)
        if execution.status is ExecutionStatus.WAITING_SIGNAL:
            # Skip script entries already durably delivered (a resumed
            # run remembers its signals; redelivery would be harmless
            # but pointless).
            pool = [
                (name, payload) for name, payload in pool
                if name not in execution.signals
            ]
            index = next(
                (
                    i for i, (name, __) in enumerate(pool)
                    if name == execution.waiting_signal
                ),
                None,
            )
            if index is not None:
                name, payload = pool.pop(index)
                engine.signal(wid, name, payload)
            elif spec.expire_waits and execution.wait_timeout is not None:
                engine.expire_wait(wid)
            else:
                raise AssetError(
                    f"scenario {spec.name!r} parked on signal"
                    f" {execution.waiting_signal!r} with no scripted"
                    " delivery and no timer"
                )
        else:
            engine.resume(wid)
    return engine.status(wid)


def live_transactions(manager):
    """Transactions still holding resources — must be zero at the end.

    Walks every descriptor's status on purpose rather than reading
    ``manager.table.live()``: this is the leak oracle, and the index the
    product prunes would make it agree with a wrong ``retire``.
    """
    return sum(1 for td in manager.table if not td.status.is_terminated)


def _judge_final(spec, ctx, storage, engine, violations):
    """The resumed run: terminal status, checks, leaks, fold agreement."""
    wid = ctx.get("wid")
    if wid is None or wid not in engine.executions():
        # The crash predated the durable ``started`` record: there is no
        # execution to resume, and nothing further to hold the engine to.
        return None
    status = drive_to_terminal(engine, wid, spec)
    if status not in spec.expected_terminal:
        violations.append(
            f"{spec.name}: resumed execution ended {status}, expected one"
            f" of {[s.value for s in spec.expected_terminal]}"
        )
    execution = engine.execution(wid)
    if spec.check is not None:
        try:
            spec.check(ctx, storage, execution)
        except AssertionError as failed:
            violations.append(f"{spec.name}: final-state check: {failed}")
    leaked = live_transactions(engine.runtime.manager)
    if leaked:
        violations.append(
            f"{spec.name}: {leaked} transaction(s) leaked after the"
            " resumed run terminated"
        )
    # The fold oracle: the durable log alone must tell the same story
    # the live engine does (status and per-step outcomes).  The winners
    # come from the harness's own log analysis, not the engine's.
    folded = _logged(storage, wid)
    if folded is None:
        violations.append(f"{spec.name}: wid {wid} vanished from the log")
    else:
        if folded.status is not execution.status:
            violations.append(
                f"{spec.name}: fold says {folded.status}, engine says"
                f" {execution.status}"
            )
        for name in execution.steps:
            if folded.status_of(name) is not execution.status_of(name):
                violations.append(
                    f"{spec.name}: step {name!r} fold/engine disagree:"
                    f" {folded.status_of(name)} vs {execution.status_of(name)}"
                )
    return status


def _logged(storage, wid):
    """``wid``'s execution as the whole log tells it, by the harness's
    own analysis (``None``: no record names it)."""
    log_records = list(storage.log.records())
    return fold_all(log_records, analyze_log(log_records).winners).get(wid)


def workflow_crash_sweep(spec, n_shards=None, stop_at_first=False):
    """Crash at every numbered I/O step; restart, recover, resume, judge."""
    trace = probe(spec, n_shards=n_shards)
    return sweep(
        spec, crash_steps(trace), trace=trace,
        stop_at_first=stop_at_first, n_shards=n_shards,
    )


# ---------------------------------------------------------------------------
# registered scenarios
# ---------------------------------------------------------------------------


def _travel_setup(availability):
    def setup(runtime, ctx):
        agency = TravelAgency(runtime, availability=availability)
        ctx["agency"] = agency
        ctx["oids"] = {name: oid for name, oid in agency.oids.items()}
        # The constructor ran one committed setup transaction: the lone
        # winner so far, for the ack books.
        return [agency.setup_tid]

    return setup


def _travel_definition(name, waits=None):
    def definition(ctx):
        agency = ctx["agency"]
        spec = build_x_conference_spec(agency)

        # Give the hotel its own compensation so "fully compensated"
        # restores the whole inventory, whichever prefix committed.
        def cancel_hotel(tx):
            record = decode_json(
                (yield tx.read(agency.hotels["Equator"]))
            )
            booking = ["6/11/1994", "6/14/1994"]
            if booking in record["bookings"]:
                record["bookings"].remove(booking)
                record["available"] += 1
                yield tx.write(
                    agency.hotels["Equator"], encode_json(record)
                )
            return record["available"]

        hotel = next(task for task in spec if task.name == "hotel")
        hotel.compensate_with(cancel_hotel)
        return WorkflowDefinition(name, spec, waits=waits)

    return definition


def _stored(storage, ctx, name):
    """One named object's bytes, straight from either storage engine."""
    return read_state(storage)[ctx["oids"][name]]


def _booked(storage, ctx, name):
    """Booking count of one travel resource."""
    return len(decode_json(_stored(storage, ctx, name))["bookings"])


def _check_travel_completed(ctx, storage, execution):
    flights = sum(_booked(storage, ctx, a) for a in AIRLINES)
    assert flights == 1, f"expected exactly one flight booking, saw {flights}"
    assert _booked(storage, ctx, "Equator") == 1, "hotel booking missing"
    cars = sum(_booked(storage, ctx, c) for c in ("National", "Avis"))
    assert cars == 1, f"expected exactly one car booking, saw {cars}"


def _check_travel_compensated(ctx, storage, execution):
    # Fully compensated: the inventory is exactly as the setup left it.
    for name in list(AIRLINES) + ["Equator", "National", "Avis"]:
        booked = _booked(storage, ctx, name)
        assert booked == 0, f"{name} still shows {booked} booking(s)"


register(WorkflowScenarioSpec(
    name="workflow_travel_crash",
    description=(
        "The appendix travel workflow (contingent flight, required hotel,"
        " raced car) runs to completion as a durable execution; a"
        " crash at any I/O step must resume to COMPLETED with exactly one"
        " booking per resource class."
    ),
    setup=_travel_setup(availability=None),
    definition=_travel_definition("workflow_travel_crash"),
    expected_terminal=(ExecutionStatus.COMPLETED,),
    check=_check_travel_completed,
))


def _set_value(tx, oid, value):
    yield tx.write(oid, encode_int(value))
    return value


def _signal_setup(runtime, ctx):
    def setup(tx):
        oids = {}
        oids["order"] = yield tx.create(encode_int(0), name="order")
        oids["audit"] = yield tx.create(encode_int(0), name="audit")
        return oids

    result = runtime.run(setup)
    ctx["oids"] = result.value
    return [result.tid]


def _approval_definition(name, timeout=40, on_timeout="fail"):
    """place → (wait for "approve") → confirm; place is compensable."""

    def definition(ctx):
        from repro.workflow.spec import WorkflowSpec

        oids = ctx["oids"]
        spec = WorkflowSpec(name=f"{name}_spec")
        place = spec.task("place")
        place.alternative(_set_value, args=(oids["order"], 1), label="place")
        place.compensate_with(_set_value, args=(oids["order"], 0))
        confirm = spec.task("confirm", depends_on=("place",))
        confirm.alternative(
            _set_value, args=(oids["audit"], 1), label="confirm"
        )
        return WorkflowDefinition(name, spec).wait_for(
            "confirm", "approve", timeout=timeout, on_timeout=on_timeout
        )

    return definition


def _value_of(storage, ctx, name):
    return decode_int(_stored(storage, ctx, name))


def _check_signal_timeout(ctx, storage, execution):
    assert _value_of(storage, ctx, "order") == 0, (
        "place was not compensated after the approval timeout"
    )
    assert _value_of(storage, ctx, "audit") == 0, (
        "confirm ran despite the approval never arriving"
    )


def _check_signal_delivered(ctx, storage, execution):
    assert _value_of(storage, ctx, "order") == 1, "place lost"
    assert _value_of(storage, ctx, "audit") == 1, "confirm lost"
    # Read off the log: an image recovered for a finished execution is
    # its ``finished`` record alone.
    assert _logged(storage, execution.wid).signals.get("approve") == "qa", (
        "delivered signal payload lost"
    )


register(WorkflowScenarioSpec(
    name="workflow_signal_timeout",
    description=(
        "A place→confirm workflow parked on an \"approve\" signal whose"
        " timer expires: the required confirm step fails on timeout, so"
        " the committed place step must be compensated — through any"
        " crash point, including mid-compensation."
    ),
    setup=_signal_setup,
    definition=_approval_definition(
        "workflow_signal_timeout", timeout=40, on_timeout="fail"
    ),
    expire_waits=True,
    expected_terminal=(ExecutionStatus.COMPENSATED,),
    check=_check_signal_timeout,
))


register(WorkflowScenarioSpec(
    name="workflow_signal_delivered",
    description=(
        "The approval workflow with the \"approve\" signal scripted: the"
        " durable signal record must survive crashes, so a resumed run"
        " never re-parks on a signal it already received."
    ),
    setup=_signal_setup,
    definition=_approval_definition(
        "workflow_signal_delivered", timeout=40, on_timeout="fail"
    ),
    signals=(("approve", "qa"),),
    expected_terminal=(ExecutionStatus.COMPLETED,),
    check=_check_signal_delivered,
))


register(WorkflowScenarioSpec(
    name="workflow_travel_sellout",
    description=(
        "The travel workflow against a sold-out hotel: the flight books,"
        " the required hotel fails, and the saga must unwind — any crash"
        " must still resume to COMPENSATED with the inventory restored."
    ),
    setup=_travel_setup(availability={"Equator": 0}),
    definition=_travel_definition("workflow_travel_sellout"),
    expected_terminal=(ExecutionStatus.COMPENSATED,),
    check=_check_travel_compensated,
))
