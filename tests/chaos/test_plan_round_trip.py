"""A plan serialises itself from its fields, exactly as it did by hand.

``FaultPlan.to_dict`` / ``describe`` / ``is_noop`` / ``from_dict`` are
derived from the dataclass fields; ``tests/chaos/plan_dict_oracle.py``
keeps the hand-written bodies.  On generated plans and on every plan
recorded in the sweep goldens the two must agree byte for byte — the
dict's key order is the replay command's — and a plan must survive its
own round trip.
"""

from __future__ import annotations

import json
import os
from dataclasses import fields
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos.faults import FaultPlan
from repro.chaos.sweep import replay_command
from tests.chaos import plan_dict_oracle as by_hand

LONG = os.environ.get("CHAOS_BUDGET") == "long"
MAX_EXAMPLES = 1500 if LONG else 300

GOLDEN = Path(__file__).parent / "golden"
SITES = ("alpha", "beta", "gamma", "delta")

numbers = st.integers(min_value=0, max_value=80)
maybe_number = st.none() | numbers
number_sets = st.frozensets(numbers, max_size=4)
names = st.sampled_from(SITES)

plans = st.builds(
    FaultPlan,
    crash_at=maybe_number,
    torn_page_at=maybe_number,
    lose_fsync_at=number_sets,
    fail_flush_at=number_sets,
    crash_at_failpoint=st.none()
    | st.tuples(st.sampled_from(("commit.log", "abort.undone")), numbers),
    keep_tail=st.booleans(),
    label=st.text(max_size=12),
    drop_msg_at=number_sets,
    drop_msg_kinds=st.frozensets(
        st.sampled_from(("prepare", "vote", "decision")), max_size=3
    ),
    dup_msg_at=number_sets,
    delay_msg_at=number_sets,
    partition_at=maybe_number,
    heal_at=maybe_number,
    partition_groups=st.lists(
        st.lists(names, min_size=1, max_size=3).map(tuple), max_size=3
    ).map(tuple),
    site_crash_at=st.none() | st.tuples(names, numbers),
    kill_coordinator_at=maybe_number,
    join_site_at=st.none() | st.tuples(names, numbers),
    leave_site_at=st.none() | st.tuples(names, names, numbers),
)


def _agrees_with_the_hand_written_methods(plan):
    artifact = json.dumps(plan.to_dict())
    assert artifact == json.dumps(by_hand.to_dict(plan))
    assert plan.describe() == by_hand.describe(plan)
    assert plan.is_noop == by_hand.is_noop(plan)
    data = json.loads(artifact)
    again = FaultPlan.from_dict(data)
    assert again == plan == by_hand.from_dict(data)
    assert json.dumps(again.to_dict()) == artifact
    assert replay_command("s", again) == replay_command("s", plan)


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(plan=plans)
def test_generated_plans(plan):
    _agrees_with_the_hand_written_methods(plan)


def _recorded_plans(node, keys):
    """Every plan dict in a golden file (compact: default fields left out)."""
    if isinstance(node, dict):
        if node.keys() <= keys:
            yield node
            return
        for value in node.values():
            yield from _recorded_plans(value, keys)
    elif isinstance(node, list):
        for value in node:
            yield from _recorded_plans(value, keys)


def test_every_plan_in_the_goldens():
    keys = {spec.name for spec in fields(FaultPlan) if spec.init}
    recorded = [
        plan
        for path in sorted(GOLDEN.glob("*.json"))
        for plan in _recorded_plans(json.loads(path.read_text()), keys)
    ]
    assert len(recorded) > 5000
    for data in recorded:
        plan = FaultPlan.from_dict(data)
        assert plan == by_hand.from_dict(data)
        _agrees_with_the_hand_written_methods(plan)


def test_the_artifact_lists_every_field_in_field_order():
    assert list(FaultPlan().to_dict()) == [
        spec.name for spec in fields(FaultPlan) if spec.init
    ]
    assert FaultPlan.from_dict({}) == FaultPlan()
    plan = FaultPlan(
        partition_at=5, heal_at=9, partition_groups=[["alpha"], ["beta"]]
    )
    assert plan.describe() == "partition_at=5..9 (alpha|beta)"
    assert plan.partition_groups == (("alpha",), ("beta",))
