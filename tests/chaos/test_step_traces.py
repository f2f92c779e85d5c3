"""Step numbers and traces, by name: a red run here says "a step moved".

``tests/chaos/golden/cluster_traces.json`` holds, for every registered
cluster scenario, what the healthy probe numbered — ``injector.trace``
as ``[number, kind, detail]`` triples — and what the fabric did with
each message (``fabric.delivery_log``), recorded from the parent of
PR 19 and moved once since, by PR 21's checked mapping (an update became
one log record: see the golden README).  ``cluster_group_commit`` also
carries the five plans CI's replay smokes run, recorded through
``run_plan`` to the end of the judgment: the same runs with the plan's
gate open.

Re-record (only when a step is *meant* to move) with the tree to record
from first on the path::

    PYTHONPATH=src:. python -c \\
        "from tests.chaos.test_step_traces import record; record()"
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro.cluster.scenarios  # noqa: F401  (registers the scenarios)
from repro.chaos.faults import FaultPlan
from repro.chaos.sweep import get, names, probe, run_plan

GOLDEN = Path(__file__).parent / "golden" / "cluster_traces.json"

# The plans of CI's cluster and membership-churn replay smokes.
SMOKE_PLANS = {
    "drop@28": FaultPlan(drop_msg_at={28}),
    "partition@24..40": FaultPlan(
        partition_at=24, heal_at=40,
        partition_groups=(("alpha",), ("beta", "gamma")),
    ),
    "kill_coordinator@32": FaultPlan(kill_coordinator_at=32),
    "join delta@29": FaultPlan(join_site_at=("delta", 29)),
    "leave beta:gamma@32": FaultPlan(leave_site_at=("beta", "gamma", 32)),
}


def _observed(cluster):
    return {
        "trace": [
            [step.number, step.kind, step.detail]
            for step in cluster.injector.trace
        ],
        "delivery_log": [list(entry) for entry in cluster.fabric.delivery_log],
    }


def _run(name, label):
    spec = get(name)
    if label == "healthy":
        return _observed(probe(spec).system)
    return _observed(run_plan(spec, SMOKE_PLANS[label]).system)


def _cases():
    for name in names("cluster"):
        yield name, "healthy"
    for label in SMOKE_PLANS:
        yield "cluster_group_commit", label


def record():
    golden = {}
    for name, label in _cases():
        golden.setdefault(name, {})[label] = _run(name, label)
    GOLDEN.write_text(
        json.dumps(golden, separators=(",", ":"), sort_keys=True) + "\n"
    )


def test_every_registered_cluster_scenario_has_a_recorded_trace():
    golden = json.loads(GOLDEN.read_text())
    assert set(golden) == set(names("cluster"))
    assert all("healthy" in runs for runs in golden.values())
    assert set(golden["cluster_group_commit"]) == {"healthy", *SMOKE_PLANS}


@pytest.mark.parametrize("name,label", list(_cases()))
def test_steps_and_deliveries_equal_the_parent_recording(name, label):
    golden = json.loads(GOLDEN.read_text())[name][label]
    observed = _run(name, label)
    for key in ("trace", "delivery_log"):
        moved = next(
            (
                (want, got)
                for want, got in zip(golden[key], observed[key])
                if want != got
            ),
            None,
        )
        assert moved is None, (
            f"{name} [{label}]: first {key} entry that moved, as"
            f" (recorded, observed): {moved}"
        )
        assert len(observed[key]) == len(golden[key]), (name, label, key)
