"""The one sweep driver enumerates exactly what the three harnesses did.

``tests/chaos/golden/`` holds, for every registered single-site,
workflow and cluster scenario, the sequence of fault plans each sweep
entry point enumerated before the harnesses were merged (see its
README).  These tests stub out the run (only probes execute, so the
whole battery is cheap), push every entry point through
:func:`repro.chaos.sweep.sweep`, and fail if the accounting drifts: a
plan added, dropped, reordered or relabelled, or a dimension whose
covered keys are not its universe.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro.chaos.scenarios  # noqa: F401  (registers the scenarios)
import repro.chaos.workflow  # noqa: F401
import repro.cluster.scenarios  # noqa: F401
from repro.chaos import sweep as driver
from repro.chaos.faults import FaultPlan
from repro.chaos.workflow import workflow_crash_sweep
from repro.cluster.sweep import (
    coordinator_deaths,
    joins,
    leaves,
    message_faults,
    message_sweep,
    partitions,
    release_blackout_sweep,
    site_crashes,
    takeover_death_sweep,
)

GOLDEN = Path(__file__).parent / "golden"
DEFAULTS = FaultPlan().to_dict()


def _golden(name):
    return json.loads((GOLDEN / name).read_text())


def _compact(plan):
    return {k: v for k, v in plan.to_dict().items() if v != DEFAULTS[k]}


@pytest.fixture
def enumerated(monkeypatch):
    """Replace the run with a recorder: sweeps enumerate, nothing drives."""
    plans = []

    def record(spec, plan, instrument=None, **options):
        plans.append(_compact(plan))
        return driver.Verdict(scenario=spec.name, plan=plan, system=None)

    monkeypatch.setattr(driver, "run_plan", record)
    return plans


def _check(result, enumerated, golden_plans):
    assert enumerated == golden_plans
    assert result.runs == len(golden_plans)
    assert result.covered == result.universe
    assert result.ok


SINGLE = _golden("single_site.json")
WORKFLOW = _golden("workflow.json")
CLUSTER = _golden("cluster.json")


def test_every_registered_scenario_has_a_golden():
    assert set(SINGLE["crash_sweep"]) == set(driver.names("single-site"))
    assert set(SINGLE["transient_fault_sweep"]) == set(
        driver.names("single-site")
    )
    assert {key.split("/")[0] for key in WORKFLOW["workflow_crash_sweep"]} == (
        set(driver.names("workflow"))
    )
    for entry in ("message_fault_sweep", "site_crash_sweep", "partition_sweep",
                  "coordinator_death_sweep", "release_blackout_sweep"):
        assert set(CLUSTER[entry]) == set(driver.names("cluster")), entry


@pytest.mark.parametrize("name", sorted(SINGLE["crash_sweep"]))
def test_crash_sweep_enumerates_the_golden_plans(name, enumerated):
    result = driver.crash_sweep(
        driver.get(name), keep_tail_modes=(False, True)
    )
    _check(result, enumerated, SINGLE["crash_sweep"][name])
    assert result.coverage_complete


@pytest.mark.parametrize("name", sorted(SINGLE["transient_fault_sweep"]))
def test_transient_sweep_enumerates_the_golden_plans(name, enumerated):
    result = driver.transient_fault_sweep(driver.get(name))
    _check(result, enumerated, SINGLE["transient_fault_sweep"][name])


@pytest.mark.parametrize("key", sorted(WORKFLOW["workflow_crash_sweep"]))
def test_workflow_sweep_enumerates_the_golden_plans(key, enumerated):
    name, storage = key.split("/")
    n_shards = None if storage == "flat" else int(storage.split("=")[1])
    result = workflow_crash_sweep(driver.get(name), n_shards=n_shards)
    _check(result, enumerated, WORKFLOW["workflow_crash_sweep"][key])
    assert result.coverage_complete


def _leave_pair(spec):
    # The pair the goldens were recorded with: the second site hands
    # over to the last (or to the first, in a two-site scenario).
    sites = sorted(spec.sites)
    return sites[1], sites[-1] if sites[-1] != sites[1] else sites[0]


def _wedge(spec):
    return next(
        n for n, d in driver.probe(spec).messages if d.endswith(":vote")
    )


# Each legacy cluster entry point, as the sweep it is now.
CLUSTER_ENTRY_POINTS = {
    "message_fault_sweep": lambda spec: message_sweep(
        spec, message_faults, ("drop", "duplicate", "delay")
    ),
    "site_crash_sweep": lambda spec: message_sweep(
        spec, site_crashes, spec.sites
    ),
    "partition_sweep": lambda spec: message_sweep(
        spec, partitions, spec.partition_splits()
    ),
    "coordinator_death_sweep": lambda spec: message_sweep(
        spec, coordinator_deaths
    ),
    "takeover_death_sweep": lambda spec: takeover_death_sweep(
        spec, _wedge(spec)
    ),
    "release_blackout_sweep": release_blackout_sweep,
    "join_sweep": lambda spec: message_sweep(spec, joins, "delta"),
    "leave_sweep": lambda spec: message_sweep(
        spec, leaves, *_leave_pair(spec)
    ),
}


@pytest.mark.parametrize(
    "entry,name",
    [
        (entry, name)
        for entry in sorted(CLUSTER)
        for name in sorted(CLUSTER[entry])
    ],
)
def test_cluster_sweeps_enumerate_the_golden_plans(entry, name, enumerated):
    golden = CLUSTER[entry][name]
    result = CLUSTER_ENTRY_POINTS[entry](driver.get(name))
    _check(result, enumerated, golden["plans"])
    # The parent picked a runner per sweep function; the one cluster
    # judge picks from the plan.  They agree iff the runner was always a
    # function of the plan: kill_coordinator_at <=> two-phase failover.
    selected = {
        "failover" if "kill_coordinator_at" in plan else "cluster"
        for plan in golden["plans"]
    }
    assert selected == set(golden["judgment"])
