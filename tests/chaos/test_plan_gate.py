"""The ``first_step`` gate against its reference.

A :class:`~repro.chaos.faults.FaultPlan` is consulted from its first
step on; below it the injector numbers and records a step and asks
nothing.  ``tests/chaos/plan_gate_oracle.py`` keeps the ungated bodies
(and the fabric that fired the cluster marks before the injector did);
here random plans over random step streams must give the same verdicts,
exceptions, effects and bookkeeping through both, and the derived field
itself is pinned.
"""

from __future__ import annotations

import os
from math import inf

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos.faults import CrashPoint, FaultInjector, FaultPlan, IoStep
from repro.common.errors import TransientIOError
from repro.net.fabric import NetworkFabric
from tests.chaos.plan_gate_oracle import UngatedFabric, UngatedInjector

LONG = os.environ.get("CHAOS_BUDGET") == "long"
MAX_EXAMPLES = 1500 if LONG else 200

SITES = ("alpha", "beta", "gamma")
MSG_KINDS = ("prepare", "vote", "decision")
HORIZON = 40  # step numbers a plan may name; streams run past it

numbers = st.integers(min_value=1, max_value=HORIZON)
maybe_number = st.none() | numbers
number_sets = st.frozensets(numbers, max_size=3)

plans = st.builds(
    FaultPlan,
    crash_at=maybe_number,
    torn_page_at=maybe_number,
    lose_fsync_at=number_sets,
    fail_flush_at=number_sets,
    drop_msg_at=number_sets,
    drop_msg_kinds=st.frozensets(st.sampled_from(MSG_KINDS), max_size=2),
    dup_msg_at=number_sets,
    delay_msg_at=number_sets,
    partition_at=maybe_number,
    heal_at=maybe_number,
    partition_groups=st.just((("alpha",), ("beta", "gamma"))),
    site_crash_at=st.none() | st.tuples(st.sampled_from(SITES), numbers),
    kill_coordinator_at=maybe_number,
    join_site_at=st.none() | st.tuples(st.just("delta"), numbers),
    leave_site_at=st.none()
    | st.tuples(st.just("beta"), st.just("gamma"), numbers),
)

messages = st.tuples(
    st.just("message"),
    st.sampled_from(SITES),
    st.sampled_from(SITES),
    st.sampled_from(MSG_KINDS),
)
small = st.integers(min_value=0, max_value=9)
io_steps = st.one_of(
    st.tuples(st.just("page_write"), small),
    st.tuples(st.just("page_sync")),
    st.tuples(st.just("log_append"), small),
    st.tuples(st.just("log_flush")),
    st.tuples(st.just("pool_flush"), small),
    st.tuples(st.just("gc_enroll"), small),
    messages,
)


class FabricConsole:
    """What a bound injector's marks act on, over a bare fabric — a
    cluster console whose crash is the endpoint's power cut (what the
    reference fabric does with no crash hook installed)."""

    def __init__(self, fabric):
        self.fabric = fabric
        self.coordinator = None
        self.pending_churn = []

    def crash_site(self, name):
        self.fabric.mark_down(name)

    def partition(self, *groups):
        self.fabric.partition(groups)

    def heal(self):
        self.fabric.heal()


def _drive(injector, stream):
    """Every call's outcome and effect, in order."""
    observed = []
    for op, *args in stream:
        effects = []
        effect = lambda *what: effects.append(what)  # noqa: E731
        if op == "page_write":
            args = [args[0], bytes([args[0]]) * 1024, effect]
        elif op in ("page_sync", "log_append", "log_flush"):
            args = [*args, effect]
        try:
            outcome = ("returned", getattr(injector, op)(*args))
        except CrashPoint as crash:
            outcome = ("crash", crash.step, crash.kind, crash.detail)
        except TransientIOError as error:
            outcome = ("transient", str(error))
        observed.append((op, outcome, effects))
    return observed


def _bookkeeping(injector):
    return {
        "trace": list(injector.trace),
        "step_count": injector.step_count,
        "fired": injector.fired,
        "armed": injector.armed,
        "lied_fsyncs": injector.lied_fsyncs,
        "failed_flushes": injector.failed_flushes,
    }


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(plan=plans, stream=st.lists(io_steps, max_size=60))
def test_the_gated_injector_is_the_ungated_one(plan, stream):
    gated, reference = FaultInjector(plan=plan), UngatedInjector(plan=plan)
    gated.bind(FabricConsole(NetworkFabric()))  # its marks: the property below
    assert _drive(gated, stream) == _drive(reference, stream)
    assert _bookkeeping(gated) == _bookkeeping(reference)


MARKS = ("partition", "heal", "site crash", "coordinator kill", "join", "leave")


def _fabric_state(fabric, churn, fired):
    return {
        "delivery_log": list(fabric.delivery_log),
        "partitions": fabric.partitions,
        "down": set(fabric.down),
        "churn": list(churn),
        "fired": fired,
        "stats": dict(fabric.stats),
        "inboxes": {
            name: [(m.msg_id, m.kind) for m in inbox]
            for name, inbox in fabric.inboxes.items()
        },
        "delayed": [m.msg_id for m in fabric.delayed],
    }


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(
    plan=plans,
    stream=st.lists(messages, max_size=60),
    coordinator_from=st.integers(min_value=0, max_value=60),
)
def test_the_injector_fires_every_mark_where_the_fabric_did(
    plan, stream, coordinator_from
):
    # crash_at would end the stream at the same step on both sides (the
    # injector property covers it); here the marks are what is compared.
    plan = plan.with_(crash_at=None)
    injector = FaultInjector(plan=plan)
    gated = NetworkFabric(injector)
    console = injector.bind(FabricConsole(gated))
    reference = UngatedFabric(UngatedInjector(plan=plan))
    for fabric in (gated, reference):
        for site in SITES:
            fabric.register(site, lambda message: None)
    for index, (__, src, dst, kind) in enumerate(stream):
        if index == coordinator_from:
            console.coordinator = reference.coordinator_name = "alpha"
        for fabric in (gated, reference):
            fabric.send(src, dst, kind)
            if index % 7 == 6:
                fabric.pump_round()
        flags = (
            reference._partition_applied, reference._healed,
            reference._site_crash_fired, reference._kill_coordinator_fired,
            reference._join_fired, reference._leave_fired,
        )
        assert _fabric_state(
            gated, console.pending_churn, injector.marks_fired
        ) == _fabric_state(
            reference, reference._churn_requests,
            {mark for mark, fired in zip(MARKS, flags) if fired},
        ), index


class TestFirstStep:
    def test_the_default_plan_never_fires(self):
        assert FaultPlan().first_step == inf

    def test_kind_keyed_drops_fire_at_any_step(self):
        assert FaultPlan(drop_msg_kinds={"decision"}).first_step == 0
        assert FaultPlan(
            drop_msg_kinds={"decision"}, kill_coordinator_at=9
        ).first_step == 0

    def test_it_is_the_lowest_number_anything_names(self):
        assert FaultPlan(crash_at=7).first_step == 7
        assert FaultPlan(site_crash_at=("beta", 12)).first_step == 12
        assert FaultPlan(join_site_at=("delta", 35)).first_step == 35
        assert FaultPlan(leave_site_at=("beta", "gamma", 38)).first_step == 38
        assert FaultPlan(
            lose_fsync_at={9, 4}, delay_msg_at={6}, partition_at=5, heal_at=21
        ).first_step == 4
        # Name-keyed, not step-keyed: failpoints are not gated.
        assert FaultPlan(crash_at_failpoint=("abort.undone", 2)).first_step == inf

    def test_with_recomputes_it(self):
        plan = FaultPlan(dup_msg_at={20})
        assert plan.with_(crash_at=3).first_step == 3
        assert plan.with_(dup_msg_at=()).first_step == inf
        assert plan.with_(label="x").first_step == 20

    def test_it_is_derived_never_serialised_never_compared(self):
        plan = FaultPlan(drop_msg_at={34}, site_crash_at=("alpha", 40))
        assert "first_step" not in plan.to_dict()
        assert "first_step" not in repr(plan)
        again = FaultPlan.from_dict(plan.to_dict())
        assert again == plan and hash(again) == hash(plan)
        assert again.first_step == plan.first_step == 34
        forged = FaultPlan(drop_msg_at={34}, site_crash_at=("alpha", 40))
        object.__setattr__(forged, "first_step", 1)
        assert forged == plan

    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(plan=plans)
    def test_round_trips_keep_it(self, plan):
        assert FaultPlan.from_dict(plan.to_dict()).first_step == plan.first_step
        assert plan.with_().first_step == plan.first_step


def test_a_step_is_a_tuple_with_the_dataclass_repr():
    step = IoStep(3, "log_append", "bytes=41")
    assert step == (3, "log_append", "bytes=41")
    assert (step.number, step.kind, step.detail) == tuple(step)
    assert repr(step) == "IoStep(number=3, kind='log_append', detail='bytes=41')"
    assert IoStep(4, "log_flush").detail == ""
    assert not hasattr(step, "__dict__")
    injector = FaultInjector()
    injector.log_flush(lambda: None)
    assert injector.trace == [IoStep(1, "log_flush")]
    assert type(injector.trace[0]) is IoStep
